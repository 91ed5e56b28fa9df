// Command bench is the repository benchmark. It runs one of five seeded
// workloads in a closed loop with a single caller for a fixed number of
// seconds, checks every operation's output, and prints the end-to-end
// metrics BENCHMARK.json declares. An untraced run measures in several
// child processes, one after another, and pools their ops. A traced run
// replays the same operations in one process through each layer's public
// functions, keeps one span per layer call in memory, and prints the
// per-layer metrics instead.
//
// Usage, from the repository root:
//
//	go run ./bench                                   # every workload, one child process each
//	go run ./bench -workload crash-quiet -seed 3 -seconds 15
//	go run ./bench -workload churn-fixedbatch -trace 1
//	go run ./bench -workload byz-splitworld -trace spans.jsonl
//
// bench/run.sh builds the binary under .bench_build and runs it; it is the
// command BENCHMARK.json names. See bench/README.md for the workloads, the
// metrics and how to read the spans.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is 0 when every operation passed its check, 1 when one
// failed, and 2 on bad input (flags or BENCHMARK.json), which prints no
// result.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSize, true))
}

// benchSpec is BENCHMARK.json, the benchmark's declaration of its
// workloads and metrics.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDoc   `json:"end_to_end"`
	PerLayer   []metricDoc   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDoc struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json, rejecting unknown keys.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec benchSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		return nil, fmt.Errorf("%s: run_seconds %d outside [1, 60]", path, spec.RunSeconds)
	}
	return &spec, nil
}

// declared checks that the metrics a run computed are exactly the ones
// BENCHMARK.json declares for it.
func declared(key string, docs []metricDoc, metrics map[string]float64) error {
	seen := make(map[string]bool, len(docs))
	for _, d := range docs {
		if _, ok := metrics[d.Name]; !ok || seen[d.Name] {
			return fmt.Errorf("BENCHMARK.json: %s metric %q is not measured, or declared twice", key, d.Name)
		}
		seen[d.Name] = true
	}
	for name := range metrics {
		if !seen[name] {
			return fmt.Errorf("BENCHMARK.json: %s metric %q is measured but not declared", key, name)
		}
	}
	return nil
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is main with its dependencies passed in, so tests drive it at
// tinySize with every part in-process. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer, sz size, spawn bool) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := fs.Int64("seed", 1, "workload seed: every input derives from it")
	seconds := fs.Int("seconds", -1, "how long the timed loop runs; -1 takes run_seconds from BENCHMARK.json, 0 runs only the minimum op count")
	traceArg := fs.String("trace", "0", "0 for the untraced run; 1 for the traced run; any other value is a traced run that writes its spans to that file")
	partArg := fs.Int("part", -1, "internal: measure one part of an untraced run and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < -1 {
		fmt.Fprintf(stderr, "bench: -seconds %d is negative\n", *seconds)
		return 2
	}
	if *partArg >= 0 {
		return runPart(*name, *seed, *seconds, *partArg, stdout, stderr, sz)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds < 0 {
		*seconds = spec.RunSeconds
	}
	if *name == "" {
		return runAll(spec, *seed, *seconds, *traceArg, stdout, stderr)
	}

	traced := *traceArg != "0"
	var spanFile *os.File
	if traced && *traceArg != "1" {
		// Open before measuring, so an unwritable path fails in
		// milliseconds instead of after the whole run.
		if spanFile, err = os.Create(*traceArg); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		defer spanFile.Close()
	}
	w, err := newWorkload(*name, *seed, sz)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer w.close()

	cfg := runConfig{seed: *seed, seconds: *seconds, size: sz, spawn: spawn}
	var out *report
	if traced {
		out, err = tracedRun(w, cfg)
	} else {
		out, err = untracedRun(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if spanFile != nil {
		err := writeSpans(spanFile, out.spans)
		if err == nil {
			err = spanFile.Close()
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}

	key, docs := "end_to_end", spec.EndToEnd
	if traced {
		key, docs = "per_layer", spec.PerLayer
	}
	if err := declared(key, docs, out.metrics); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metric, len(docs))}
	res.Correct = res.Failed == 0 && len(out.problems) == 0
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "bench: %s: %s\n", *name, p)
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  ops %d  failed %d\n", *name, *seed, out.attempted, out.failed)
	for _, d := range docs {
		v := out.metrics[d.Name]
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runPart is a child process of an untraced run: it measures part k and
// prints it as one line of JSON.
func runPart(name string, seed int64, seconds, k int, stdout, stderr io.Writer, sz size) int {
	if seconds < 0 {
		fmt.Fprintln(stderr, "bench: -part needs -seconds")
		return 2
	}
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer w.close()
	p, err := measurePart(w, runConfig{seed: seed, seconds: seconds, size: sz}, k)
	if err == nil {
		err = json.NewEncoder(stdout).Encode(p)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s part %d: %v\n", name, k, err)
		return 1
	}
	return 0
}

// runAll runs every workload BENCHMARK.json lists, one child process
// each and one after another, so each workload's peak RSS and heap are
// its own. A traced run writes one span file per workload.
func runAll(spec *benchSpec, seed int64, seconds int, traceArg string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, w := range spec.Workloads {
		childTrace := traceArg
		if traceArg != "0" && traceArg != "1" {
			childTrace = strings.TrimSuffix(traceArg, ".jsonl") + "." + w.Name + ".jsonl"
		}
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", childTrace)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
			fmt.Fprintf(stderr, "bench: workload %s exited with code %d\n", w.Name, exit.ExitCode())
			code = max(code, exit.ExitCode())
		}
	}
	return code
}
