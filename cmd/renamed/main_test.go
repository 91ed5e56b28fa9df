package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exitCode runs the command in-process and returns the code the process
// would exit with (main turns a returned error into 2).
func exitCode(args []string, stdout, stderr *bytes.Buffer) int {
	code, err := run(args, stdout, stderr)
	if err != nil {
		stderr.WriteString("renamed: " + err.Error() + "\n")
		return 2
	}
	return code
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestChurnOutputDigests pins the stdout summary and the JSONL artifact
// of two churn runs byte for byte, at two engine worker counts. The
// first is the CI churn smoke; in the second, epoch 11 aborts with a
// broken committee while 14 leavers are in its batch, so any change to
// what an aborted epoch leaves behind moves the digests.
func TestChurnOutputDigests(t *testing.T) {
	cases := []struct {
		name          string
		args          []string
		stdout, jsonl string
	}{
		{
			name:   "crash smoke",
			args:   []string{"-n", "256", "-epochs", "40", "-faults", "16", "-seed", "2"},
			stdout: "86fdd83d573931bd2b826cc86e4c8b11acddb19a3dbd70c71fa626567a62573e",
			jsonl:  "0e0936d9e6e4f55caa7c512207bbc1e317bd649041b0a9ac1feb97b332bcf0bf",
		},
		{
			name:   "byzantine with an aborted epoch",
			args:   []string{"-n", "128", "-core", "byzantine", "-epochs", "60", "-faults", "8", "-seed", "3"},
			stdout: "4a784e14ace17b664737087fb267d599bd11d397d64c6e0c90f89f395ecc0ec7",
			jsonl:  "3cbe7c045f90a6a8779a3e9382d527f9a7967aa07f7291d7e8225a08f9e827f4",
		},
	}
	for _, tc := range cases {
		for _, workers := range []string{"1", "8"} {
			out := filepath.Join(t.TempDir(), "churn.jsonl")
			args := append([]string{"-workers", workers, "-out", out}, tc.args...)
			var stdout, stderr bytes.Buffer
			if code := exitCode(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s, -workers %s: exit %d\nstdout:\n%s\nstderr:\n%s", tc.name, workers, code, stdout.String(), stderr.String())
			}
			jsonl, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(stdout.Bytes()); got != tc.stdout {
				t.Errorf("%s, -workers %s: stdout sha256 %s, want %s\n%s", tc.name, workers, got, tc.stdout, stdout.String())
			}
			if got := sha256Hex(jsonl); got != tc.jsonl {
				t.Errorf("%s, -workers %s: JSONL sha256 %s, want %s", tc.name, workers, got, tc.jsonl)
			}
		}
	}
}

// TestExitCodes checks the command's flag validation: every usage error
// exits 2 with its reason on stderr before any epoch runs, and -h and a
// clean run exit 0.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string
	}{
		{"stray argument", []string{"-n", "8", "extra", "-epochs", "3", "-faults", "2"}, 2, `unexpected arguments ["extra" "-epochs" "3" "-faults" "2"]`},
		{"unknown flag", []string{"-n", "8", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"zero epochs", []string{"-n", "8", "-epochs", "0"}, 2, "-epochs must be positive"},
		{"unknown core", []string{"-n", "8", "-core", "typo"}, 2, `unknown core "typo"`},
		{"zero capacity", []string{"-n", "0"}, 2, "capacity must be positive"},
		{"join-max above capacity", []string{"-n", "64", "-join-max", "65"}, 2, "join-max 65 outside [1, capacity=64]"},
		{"help", []string{"-h"}, 0, "Usage of renamed"},
		{"clean run", []string{"-n", "8", "-epochs", "3", "-faults", "2"}, 0, "renamed: 3 epochs in"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		got := exitCode(tc.args, &stdout, &stderr)
		if got != tc.want || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s %q: exit %d, want %d with %q on stderr\nstdout:\n%s\nstderr:\n%s",
				tc.name, tc.args, got, tc.want, tc.stderr, stdout.String(), stderr.String())
			continue
		}
		if tc.want == 2 && stdout.Len() > 0 {
			t.Errorf("%s: a usage error still ran epochs:\n%s", tc.name, stdout.String())
		}
	}
}
