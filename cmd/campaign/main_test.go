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
// would exit with (main prints a returned error and exits 2).
func exitCode(args []string, stdout, stderr *bytes.Buffer) int {
	code, err := run(args, stdout, stderr)
	if err != nil {
		printError(stderr, err)
		return 2
	}
	return code
}

// checkSmokeDigest runs a campaign at -workers 1 and 8 and checks that
// both exit 0 with stdout of SHA-256 want: the tail table and the
// violation line are a pure function of the flags and the seed.
func checkSmokeDigest(t *testing.T, want string, args ...string) {
	t.Helper()
	for _, workers := range []string{"1", "8"} {
		args := append(args[:len(args):len(args)], "-workers", workers)
		var stdout, stderr bytes.Buffer
		if code := exitCode(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
		}
		sum := sha256.Sum256(stdout.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%q: stdout sha256 %s, want %s\n%s", args, got, want, stdout.String())
		}
	}
}

// TestCrashSmokeDigest pins the stdout of the CI crash campaign smoke
// byte for byte at two worker counts.
func TestCrashSmokeDigest(t *testing.T) {
	checkSmokeDigest(t, "b7fdd97530f9d93495f140cd49a8045a355bf2359d7248663e325fac9def0416",
		"-algo", "crash", "-n", "64", "-execs", "50", "-seed", "1")
}

// TestByzantineSmokeDigest pins the stdout of two Byzantine campaigns at
// two worker counts: byz-skew, whose pure-Byzantine strategies crash no
// honest node, and mixed-fault, whose schedules also crash honest nodes,
// some mid-send.
func TestByzantineSmokeDigest(t *testing.T) {
	checkSmokeDigest(t, "7895243f47d12f25e3953ea4fc7839772df7e4d7e80b036c5d0e2f0a2de42996",
		"-algo", "byzantine", "-n", "48", "-execs", "20", "-seed", "2026", "-gen", "byz-skew")
	checkSmokeDigest(t, "90b3b11e50a5e5545c07142e93ad890f4c13c7b5d594592a89ccfe03b8f79acb",
		"-algo", "byzantine", "-n", "48", "-execs", "10", "-seed", "2026", "-gen", "mixed-fault")
}

// TestExitCodes checks the command's exit codes: 0 for a clean campaign
// and -h, 1 when the oracle flags a violation, and 2 with the reason on
// stderr for every usage error, before any execution runs. A usage row
// (exit 2) pins the whole first stderr line; the others pin its start,
// since it ends in the elapsed time.
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
		{"unknown algo", []string{"-algo", "nope"}, 2, `campaign: unknown algo "nope" (want crash, byzantine, baseline-a2a or service)`},
		{"generator of another algo", []string{"-algo", "crash", "-gen", "byz-skew"}, 2, `campaign: generator "byz-skew" does not match algo "crash"`},
		{"no nodes", []string{"-n", "0"}, 2, "campaign: n must be positive, got 0"},
		{"stray argument", []string{"-n", "16", "extra", "-execs", "4"}, 2, `campaign: unexpected arguments ["extra" "-execs" "4"]`},
		{"missing replay artifact", []string{"-replay", missing}, 2, "campaign: open " + missing + ": no such file or directory"},
		{"help", []string{"-h"}, 0, "Usage of campaign:"},
		{"search is gone", []string{"-search", "-n", "16", "-budget-execs", "4"}, 2, "flag provided but not defined: -search"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		got := exitCode(tc.args, &stdout, &stderr)
		first, _, _ := strings.Cut(stderr.String(), "\n")
		match := strings.HasPrefix(first, tc.stderr)
		if tc.want == 2 {
			match = first == tc.stderr
		}
		if got != tc.want || !match {
			t.Errorf("%s %q: exit %d, want %d with first stderr line %q\nstdout:\n%s\nstderr:\n%s",
				tc.name, tc.args, got, tc.want, tc.stderr, stdout.String(), stderr.String())
			continue
		}
		if tc.want == 2 && stdout.Len() > 0 {
			t.Errorf("%s: a usage error still ran executions:\n%s", tc.name, stdout.String())
		}
	}
}
