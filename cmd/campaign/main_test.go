package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"strings"
	"testing"
)

// exitCode runs the command in-process and returns the code the process
// would exit with (main turns a returned error into 2).
func exitCode(args []string, stdout, stderr *bytes.Buffer) int {
	code, err := run(args, stdout, stderr)
	if err != nil {
		stderr.WriteString("campaign: " + err.Error() + "\n")
		return 2
	}
	return code
}

// TestCrashSmokeDigest pins the stdout of the CI crash campaign smoke
// byte for byte at two worker counts: the tail table and the violation
// line are a pure function of the flags and the seed.
func TestCrashSmokeDigest(t *testing.T) {
	const want = "b7fdd97530f9d93495f140cd49a8045a355bf2359d7248663e325fac9def0416"
	for _, workers := range []string{"1", "8"} {
		args := []string{"-algo", "crash", "-n", "64", "-execs", "50", "-seed", "1", "-workers", workers}
		var stdout, stderr bytes.Buffer
		if code := exitCode(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-workers %s: exit %d\nstdout:\n%s\nstderr:\n%s", workers, code, stdout.String(), stderr.String())
		}
		sum := sha256.Sum256(stdout.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("-workers %s: stdout sha256 %s, want %s\n%s", workers, got, want, stdout.String())
		}
	}
}

// TestExitCodes checks the command's exit codes: 0 for a clean campaign
// and -h, 1 when the oracle flags a violation, and 2 with the reason on
// stderr for every usage error, before any execution runs.
func TestExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string
	}{
		{"clean campaign", []string{"-n", "16", "-execs", "4", "-seed", "1"}, 0, "campaign: 4 executions in"},
		{"broken oracle", []string{"-n", "16", "-execs", "4", "-round-ceiling", "1"}, 1, "campaign: 4 executions in"},
		{"unknown algo", []string{"-algo", "nope"}, 2, `unknown algo "nope"`},
		{"generator of another algo", []string{"-algo", "crash", "-gen", "byz-skew"}, 2, `generator "byz-skew" does not match algo "crash"`},
		{"stray argument", []string{"-n", "16", "extra", "-execs", "4"}, 2, `unexpected arguments ["extra" "-execs" "4"]`},
		{"missing replay artifact", []string{"-replay", missing}, 2, "no such file or directory"},
		{"help", []string{"-h"}, 0, "Usage of campaign"},
		{"search is gone", []string{"-search", "-n", "16", "-budget-execs", "4"}, 2, "flag provided but not defined: -search"},
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
			t.Errorf("%s: a usage error still ran executions:\n%s", tc.name, stdout.String())
		}
	}
}
