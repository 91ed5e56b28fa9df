package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySize runs every workload in milliseconds.
var tinySize = size{
	crashN: 64, byzN: 64,
	churnCapacity: 256, churnBigN: 1 << 14, churnBatch: 64, churnTrace: 3,
	campaignN: 32, campaignExecs: 3,
	ops: map[string]int{
		"crash-quiet": 3, "crash-killer": 3, "byz-splitworld": 3,
		"churn-fixedbatch": 5, "campaign-crash": 2,
	},
	parts:  2,
	setups: 1,
}

// inRepoRoot runs the test from the repository root, where the benchmark
// finds BENCHMARK.json.
func inRepoRoot(t *testing.T) {
	t.Helper()
	chdir(t, "..")
}

func chdir(t *testing.T, dir string) {
	t.Helper()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(prev); err != nil {
			t.Fatal(err)
		}
	})
}

// runBench runs the command in-process and decodes its result line.
func runBench(t *testing.T, args ...string) (int, result, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, tinySize, false)
	var res result
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code != 2 {
		t.Fatalf("%v: last stdout line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String(), stderr.String()
}

// TestGoldenMatchesWarmUp checks that BENCHMARK.json declares exactly
// the workloads the program runs and that golden.json holds each one's
// full-size warm-up counts, as every benchmark run checks them.
func TestGoldenMatchesWarmUp(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != len(workloadNames) {
		t.Errorf("golden.json has %d workloads, want %d", len(g), len(workloadNames))
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1, fullSize)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.setup()
		w.close()
		if err != nil {
			t.Fatalf("%s set-up: %v", name, err)
		}
		if err := checkGolden(name, got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny size.
// A traced run fails (exit 1) unless every op's traced messages, bits and
// rounds equal the untraced RunCrash / RunByzantine / EpochResult /
// campaign record counts, so exit 0 is that cross-check.
func TestWorkloadsSmoke(t *testing.T) {
	inRepoRoot(t)
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			code, res, stdout, stderr := runBench(t, "-workload", name, "-seed", "7", "-seconds", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < tinySize.ops[name] {
				t.Fatalf("untraced: exit %d, result %+v\nstderr:\n%s", code, res, stderr)
			}
			checkMetrics(t, res, stdout, spec.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			code, res, stdout, stderr = runBench(t, "-workload", name, "-seed", "7", "-seconds", "0", "-trace", spans)
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: exit %d, result %+v\nstderr:\n%s", code, res, stderr)
			}
			checkMetrics(t, res, stdout, spec.PerLayer)
			checkSpans(t, spans)
		})
	}
}

func checkMetrics(t *testing.T, res result, stdout string, docs []metricDoc) {
	t.Helper()
	if len(res.Metrics) != len(docs) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(docs))
	}
	printed := make(map[string]string)
	for _, line := range strings.Split(stdout, "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			printed[f[0]] = f[2]
		}
	}
	for _, d := range docs {
		name, unit := d.Name, d.Unit
		m, ok := res.Metrics[name]
		if !ok || m.Unit != unit {
			t.Errorf("metric %s: got %+v, want unit %q", name, m, unit)
		}
		if printed[name] != unit {
			t.Errorf("stdout prints %s with unit %q, want %q", name, printed[name], unit)
		}
	}
}

// checkSpans reads a span file and checks its structure: every child
// lies inside its parent, no span's children cover more than it does,
// and every one-shot execution has its fixed layer spans plus one span
// per round whose messages add up to the execution's total.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type attrs struct {
		Nodes  int   `json:"nodes"`
		Msgs   int64 `json:"msgs"`
		Rounds int64 `json:"rounds"`
	}
	type rec struct {
		Op, ID, Parent int
		Name           string
		Start          int64 `json:"start_ns"`
		End            int64 `json:"end_ns"`
		Attrs          attrs
	}
	var spans []rec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s rec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.ID != len(spans)+1 || s.End < s.Start {
			t.Fatalf("span %+v: ids must be dense from 1 and end after start", s)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	covered := make([]int64, len(spans)+1)
	fixed := make(map[int]map[string]int)
	rounds := make(map[int]int64)
	msgs := make(map[int]int64)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p := spans[s.Parent-1]
		if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %+v escapes its parent %+v", s, p)
		}
		covered[s.Parent] += s.End - s.Start
		if fixed[s.Parent] == nil {
			fixed[s.Parent] = make(map[string]int)
		}
		fixed[s.Parent][s.Name]++
		if s.Name == "sim.round" {
			rounds[s.Parent]++
			msgs[s.Parent] += s.Attrs.Msgs
		}
	}
	executions := 0
	for _, s := range spans {
		if self := s.End - s.Start - covered[s.ID]; self < 0 {
			t.Fatalf("span %+v has negative self time %d", s, self)
		}
		if s.Attrs.Nodes == 0 {
			continue
		}
		executions++
		for _, name := range []string{"core.config", "core.nodes", "sim.build", "sim.close"} {
			if fixed[s.ID][name] != 1 {
				t.Errorf("execution %+v has %d %s spans, want 1", s, fixed[s.ID][name], name)
			}
		}
		if rounds[s.ID] != s.Attrs.Rounds || rounds[s.ID] == 0 || msgs[s.ID] != s.Attrs.Msgs {
			t.Errorf("execution %+v: %d round spans carrying %d msgs", s, rounds[s.ID], msgs[s.ID])
		}
	}
	if executions == 0 {
		t.Error("no one-shot execution spans")
	}
}

func TestBadInputIsAnErrorNotAPanic(t *testing.T) {
	inRepoRoot(t)
	missingDir := filepath.Join(t.TempDir(), "missing", "spans.jsonl")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown workload", []string{"-workload", "nope"}, "unknown workload"},
		{"malformed seed", []string{"-workload", "crash-quiet", "-seed", "x1"}, "invalid value"},
		{"unwritable trace path", []string{"-workload", "crash-quiet", "-trace", missingDir}, "no such file"},
		{"stray argument", []string{"-workload", "crash-quiet", "extra"}, "unexpected arguments"},
		{"negative seconds", []string{"-workload", "crash-quiet", "-seconds", "-3"}, "negative"},
		{"part without seconds", []string{"-workload", "crash-quiet", "-part", "0"}, "needs -seconds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stdout, stderr := runBench(t, tc.args...)
			if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 2, no output, stderr containing %q", code, stdout, stderr, tc.want)
			}
		})
	}
}

func TestMalformedSpecIsAnError(t *testing.T) {
	good, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, spec, want string
	}{
		{"truncated", string(good[:len(good)/2]), "unexpected EOF"},
		{"unknown key", strings.Replace(string(good), `"paths"`, `"pathz"`, 1), "unknown field"},
		{"unmeasured metric", strings.Replace(string(good), `"op_ms_p90"`, `"op_ms_p95"`, 1), "op_ms_p95"},
		{"undeclared metric", strings.Replace(string(good), `{"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},`, "", 1), "op_ms_p90"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.spec == string(good) {
				t.Fatal("replacement did not apply")
			}
			chdir(t, t.TempDir())
			if err := os.WriteFile("BENCHMARK.json", []byte(tc.spec), 0o644); err != nil {
				t.Fatal(err)
			}
			code, _, stdout, stderr := runBench(t, "-workload", "crash-quiet", "-seconds", "0")
			if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 2, no output, stderr containing %q", code, stdout, stderr, tc.want)
			}
		})
	}
}
