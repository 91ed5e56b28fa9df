package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		name string
		line string
		ok   bool
		want Record
	}{
		{
			name: "procs suffix stripped",
			line: "BenchmarkCrashStepRound/n=4096-8   	     100	   2712345 ns/op	    1024 B/op	       3 allocs/op",
			ok:   true,
			want: Record{Name: "BenchmarkCrashStepRound/n=4096", Procs: 8, Iterations: 100,
				Metrics: map[string]float64{"ns/op": 2712345, "B/op": 1024, "allocs/op": 3}},
		},
		{
			name: "no procs suffix",
			line: "BenchmarkByzStepRound 50 64500 ns/op",
			ok:   true,
			want: Record{Name: "BenchmarkByzStepRound", Iterations: 50, Metrics: map[string]float64{"ns/op": 64500}},
		},
		{
			name: "non-numeric dash suffix kept in the name",
			line: "BenchmarkChurnEpoch/fixed-batch 10 9.6e+06 ns/op",
			ok:   true,
			want: Record{Name: "BenchmarkChurnEpoch/fixed-batch", Iterations: 10, Metrics: map[string]float64{"ns/op": 9.6e6}},
		},
		{
			name: "custom units",
			line: "BenchmarkByzStepRound/n=1024-2 200 31000 ns/op 15.9 msgs/round 812.5 peakHeap-MB",
			ok:   true,
			want: Record{Name: "BenchmarkByzStepRound/n=1024", Procs: 2, Iterations: 200,
				Metrics: map[string]float64{"ns/op": 31000, "msgs/round": 15.9, "peakHeap-MB": 812.5}},
		},
		{name: "header", line: "goos: linux"},
		{name: "pass", line: "PASS"},
		{name: "package summary", line: "ok  	renaming	12.345s"},
		{name: "empty", line: ""},
		{name: "too few fields", line: "BenchmarkX-8 100 5"},
		{name: "failure line", line: "--- FAIL: BenchmarkX-8 something broke"},
		{name: "non-numeric iterations", line: "BenchmarkX-8 many 5 ns/op"},
		{name: "non-numeric value", line: "BenchmarkX-8 100 fast ns/op"},
	}
	for _, tc := range cases {
		got, ok := parseBenchLine(tc.line)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v (%+v)", tc.name, ok, tc.ok, got)
			continue
		}
		if ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: parsed %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// writeFile writes content to name under dir and returns the path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareLedgers(t *testing.T) {
	const old = `{"benchmarks": [
		{"name": "BenchmarkA", "iterations": 10, "metrics": {"ns/op": 1000, "B/op": 64}},
		{"name": "BenchmarkB", "iterations": 10, "metrics": {"ns/op": 500, "peakHeap-MB": 20}}
	]}`
	cases := []struct {
		name string
		new  string
		want string // substring of the error; "" = the gate passes
	}{
		{
			name: "within tolerance",
			new: `{"benchmarks": [
				{"name": "BenchmarkA", "metrics": {"ns/op": 1200, "B/op": 9999}},
				{"name": "BenchmarkB", "metrics": {"ns/op": 500, "peakHeap-MB": 24}}]}`,
		},
		{
			name: "improvement",
			new: `{"benchmarks": [
				{"name": "BenchmarkA", "metrics": {"ns/op": 100}},
				{"name": "BenchmarkB", "metrics": {"ns/op": 50, "peakHeap-MB": 2}}]}`,
		},
		{
			name: "regression beyond tol",
			new: `{"benchmarks": [
				{"name": "BenchmarkA", "metrics": {"ns/op": 1300}},
				{"name": "BenchmarkB", "metrics": {"ns/op": 500, "peakHeap-MB": 20}}]}`,
			want: "BenchmarkA: ns/op",
		},
		{
			name: "missing benchmark",
			new:  `{"benchmarks": [{"name": "BenchmarkA", "metrics": {"ns/op": 1000}}]}`,
			want: "BenchmarkB: present in",
		},
		{
			name: "missing gated metric",
			new: `{"benchmarks": [
				{"name": "BenchmarkA", "metrics": {"ns/op": 1000}},
				{"name": "BenchmarkB", "metrics": {"ns/op": 500}}]}`,
			want: "BenchmarkB: metric peakHeap-MB missing",
		},
		{
			name: "new benchmark",
			new: `{"benchmarks": [
				{"name": "BenchmarkA", "metrics": {"ns/op": 1000}},
				{"name": "BenchmarkB", "metrics": {"ns/op": 500, "peakHeap-MB": 20}},
				{"name": "BenchmarkC", "metrics": {"ns/op": 1e9}}]}`,
		},
	}
	dir := t.TempDir()
	oldPath := writeFile(t, dir, "old.json", old)
	for i, tc := range cases {
		newPath := writeFile(t, dir, "new"+string(rune('a'+i))+".json", tc.new)
		err := compareLedgers(oldPath, newPath, 0.25)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: gate failed: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCompareLedgersBadInput: a malformed or unreadable ledger on either
// side is an error, never a panic — and so are well-formed JSON values
// of the wrong shape.
func TestCompareLedgersBadInput(t *testing.T) {
	dir := t.TempDir()
	good := writeFile(t, dir, "good.json", `{"benchmarks": [{"name": "BenchmarkA", "metrics": {"ns/op": 1}}]}`)
	for _, tc := range []struct{ name, content string }{
		{"truncated", `{"benchmarks": [`},
		{"not json", "BenchmarkA 10 5 ns/op"},
		{"wrong shape", `{"benchmarks": {"name": "BenchmarkA"}}`},
		{"wrong metric type", `{"benchmarks": [{"name": "BenchmarkA", "metrics": {"ns/op": "fast"}}]}`},
	} {
		bad := writeFile(t, dir, tc.name+".json", tc.content)
		if err := compareLedgers(good, bad, 0.25); err == nil {
			t.Errorf("%s new ledger accepted", tc.name)
		}
		if err := compareLedgers(bad, good, 0.25); err == nil {
			t.Errorf("%s old ledger accepted", tc.name)
		}
	}
	missing := filepath.Join(dir, "absent.json")
	if err := compareLedgers(missing, good, 0.25); err == nil {
		t.Error("unreadable old ledger accepted")
	}
	if err := compareLedgers(good, missing, 0.25); err == nil {
		t.Error("unreadable new ledger accepted")
	}
	// Valid JSON with null or empty fields parses; the gate must then
	// judge it without dereferencing anything absent.
	empty := writeFile(t, dir, "empty.json", `{"benchmarks": [{"name": "BenchmarkA", "metrics": null}]}`)
	if err := compareLedgers(good, empty, 0.25); err == nil {
		t.Error("ledger without the gated metric accepted")
	}
	if err := compareLedgers(empty, good, 0.25); err != nil {
		t.Errorf("old ledger without gated metrics failed the gate: %v", err)
	}
	if err := compareLedgers(writeFile(t, dir, "null.json", "null"), good, 0.25); err != nil {
		t.Errorf("empty old ledger failed the gate: %v", err)
	}
}
