// Command campaign runs a randomized adversary campaign: many
// executions of one algorithm, each against a freshly generated
// adversary strategy, every execution checked by the invariant oracle,
// the whole campaign reduced to tail statistics against the theorem
// envelopes. Violating strategies are shrunk to minimal replayable
// artifacts. See docs/CAMPAIGNS.md.
//
// Examples:
//
//	campaign -algo crash -n 256 -execs 500 -gen mixed
//	campaign -algo byzantine -n 48 -execs 40 -gen byz-skew
//	campaign -algo crash -n 64 -execs 200 -out camp.jsonl -shrink-dir .
//	campaign -algo crash -n 64 -execs 50 -round-ceiling 1   # broken-oracle demo
//
// The process exits 1 when any invariant violation was detected and 2
// on errors, so a campaign run doubles as a CI gate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"renaming/internal/campaign"
	"renaming/internal/profiling"
	"renaming/internal/runner"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		printError(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(code)
}

// printError writes err as one line that starts with exactly one
// "campaign: ": errors from internal/campaign already carry the prefix,
// the others (a missing file, say) do not.
func printError(w io.Writer, err error) {
	fmt.Fprintln(w, "campaign:", strings.TrimPrefix(err.Error(), "campaign: "))
}

// run is main with its arguments and output streams passed in, so tests
// drive it in-process. It returns the exit code: 0 when no execution
// violates an invariant (or -h), 1 on a violation, and 2 on a usage
// error; a non-nil error also exits 2.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo       = fs.String("algo", "crash", "crash | byzantine | baseline-a2a | service")
		n          = fs.Int("n", 256, "number of nodes")
		bigN       = fs.Int("N", 0, "original namespace size (default 16·n, byzantine 8·n)")
		execs      = fs.Int("execs", 500, "number of randomized executions")
		seed       = fs.Int64("seed", 1, "campaign master seed (all strategies and executions derive from it)")
		gen        = fs.String("gen", "", "strategy generator: early-burst | trickle | targeted | mixed | byz-uniform | byz-skew | byz-silent | mixed-fault | churn (default mixed / byz-uniform / churn)")
		epochs     = fs.Int("epochs", 0, "epochs per service execution (-algo service; default 24)")
		budget     = fs.Int("budget", campaign.BudgetDefault, "max crashes / Byzantine nodes per execution (-1 = default n/4 or byzantine assumption bound; 0 = zero-fault campaign)")
		scale      = fs.Float64("committee-scale", 0, "crash election-constant scale (default 0.02)")
		poolProb   = fs.Float64("pool-prob", 0, "Byzantine candidate-pool probability (default 20/n)")
		workers    = fs.Int("workers", 0, "concurrent executions (default GOMAXPROCS); artifacts are byte-identical at any count")
		outPath    = fs.String("out", "", "append one JSONL telemetry record per execution (docs/OBSERVABILITY.md)")
		shrinkDir  = fs.String("shrink-dir", "", "shrink the first violation of each invariant to a replayable artifact in this directory")
		replay     = fs.String("replay", "", "replay a shrunk artifact instead of running a campaign")
		roundCeil  = fs.Int("round-ceiling", 0, "override the oracle's round ceiling (demo/debug; one-shot algos only; 0 = theorem bound)")
		asJSON     = fs.Bool("json", false, "emit the outcome summary (tails + violations) as JSON")
		progress   = fs.Bool("progress", false, "live progress line on stderr")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this path (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this path (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "campaign: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2, nil
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return 0, err
	}

	if *replay != "" {
		code, err := replayArtifact(stdout, *replay, *asJSON)
		if err == nil {
			if perr := stopProfiles(); perr != nil {
				return 0, perr
			}
		}
		return code, err
	}

	spec := campaign.Spec{
		Algo:           campaign.Algo(*algo),
		N:              *n,
		BigN:           *bigN,
		Executions:     *execs,
		Epochs:         *epochs,
		Seed:           *seed,
		Generator:      campaign.GeneratorKind(*gen),
		Budget:         *budget,
		CommitteeScale: *scale,
		PoolProb:       *poolProb,
		Workers:        *workers,
	}
	if *roundCeil > 0 {
		// An explicit ceiling replaces the default oracle with a
		// crash-style expectation pinned to it — the "deliberately broken
		// oracle" path used to demonstrate violation detection end-to-end.
		// Normalize first so the BudgetDefault sentinel and BigN default
		// resolve before they parameterize the expectation.
		norm, err := spec.Normalized()
		if err != nil {
			return 0, err
		}
		expect := campaign.CrashExpectation(norm.N)
		if norm.Algo == campaign.AlgoByzantine {
			expect = campaign.ByzantineExpectation(norm.BigN, norm.Budget)
		}
		expect.RoundCeiling = *roundCeil
		spec.Oracle = &campaign.Oracle{Expect: expect}
	}
	if *outPath != "" {
		out, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return 0, err
		}
		defer out.Close()
		spec.Sinks = append(spec.Sinks, &runner.JSONLSink{W: out})
	}
	if *progress {
		spec.Sinks = append(spec.Sinks, &runner.ProgressSink{W: stderr})
	}

	start := time.Now()
	outcome, err := campaign.Run(spec)
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	var artifacts []string
	if *shrinkDir != "" && len(outcome.Violations) > 0 {
		artifacts, err = shrinkFirstPerInvariant(stderr, outcome, *shrinkDir)
		if err != nil {
			return 0, err
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Algo       campaign.Algo          `json:"algo"`
			Generator  campaign.GeneratorKind `json:"generator"`
			N          int                    `json:"n"`
			Executions int                    `json:"executions"`
			Seed       int64                  `json:"seed"`
			Tails      []campaign.Tail        `json:"tails"`
			Violations []campaign.Violation   `json:"violations"`
			Artifacts  []string               `json:"artifacts,omitempty"`
		}{outcome.Spec.Algo, outcome.Spec.Generator, outcome.Spec.N,
			outcome.Spec.Executions, outcome.Spec.Seed,
			outcome.Tails, outcome.Violations, artifacts}); err != nil {
			return 0, err
		}
	} else {
		printOutcome(stdout, outcome, artifacts)
	}
	// Volatile provenance goes to stderr so stdout diffs cleanly across
	// runs and worker counts (same convention as cmd/benchtables).
	fmt.Fprintf(stderr, "campaign: %d executions in %s\n", outcome.Spec.Executions, elapsed)
	if err := stopProfiles(); err != nil {
		return 0, err
	}
	if len(outcome.Violations) > 0 {
		return 1, nil
	}
	return 0, nil
}

func printOutcome(w io.Writer, outcome *campaign.Outcome, artifacts []string) {
	s := outcome.Spec
	fmt.Fprintf(w, "campaign  algo=%s gen=%s n=%d N=%d budget=%d execs=%d seed=%d\n",
		s.Algo, s.Generator, s.N, s.BigN, s.Budget, s.Executions, s.Seed)
	fmt.Fprintf(w, "%-16s %12s %12s %12s %12s %14s %8s\n",
		"metric", "p50", "p95", "p99", "max", "envelope", "ok")
	for _, tail := range outcome.Tails {
		envelope := "—"
		ok := "—"
		if tail.Envelope > 0 {
			envelope = fmtF(tail.Envelope)
			if tail.WithinEnvelope {
				ok = "yes"
			} else {
				ok = "NO"
			}
		}
		fmt.Fprintf(w, "%-16s %12s %12s %12s %12s %14s %8s\n",
			tail.Metric, fmtF(tail.P50), fmtF(tail.P95), fmtF(tail.P99), fmtF(tail.Max), envelope, ok)
	}
	if len(outcome.Violations) == 0 {
		fmt.Fprintf(w, "violations: 0 across %d executions\n", s.Executions)
		return
	}
	fmt.Fprintf(w, "violations: %d\n", len(outcome.Violations))
	shown := 0
	for _, v := range outcome.Violations {
		if shown >= 10 {
			fmt.Fprintf(w, "  … and %d more\n", len(outcome.Violations)-shown)
			break
		}
		fmt.Fprintf(w, "  exec %d seed %d [%s] %s\n", v.Exec, v.Seed, v.Invariant, v.Detail)
		shown++
	}
	for _, path := range artifacts {
		fmt.Fprintf(w, "shrunk reproducer: %s (replay with -replay %s)\n", path, path)
	}
}

// shrinkFirstPerInvariant shrinks the first violation of each distinct
// invariant and writes one artifact per invariant into dir.
func shrinkFirstPerInvariant(stderr io.Writer, outcome *campaign.Outcome, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	done := make(map[string]bool)
	for _, v := range outcome.Violations {
		if done[v.Invariant] {
			continue
		}
		done[v.Invariant] = true
		artifact, err := campaign.Shrink(outcome.Spec, v)
		if err != nil {
			fmt.Fprintf(stderr, "campaign: shrink %s: %v\n", v.Invariant, err)
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("repro-%s-exec%d.json", v.Invariant, v.Exec))
		if err := campaign.SaveArtifact(artifact, path); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

func replayArtifact(stdout io.Writer, path string, asJSON bool) (int, error) {
	artifact, err := campaign.LoadArtifact(path)
	if err != nil {
		return 0, err
	}
	res, viols, err := artifact.Replay()
	if err != nil {
		return 0, err
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Artifact   *campaign.ReproArtifact `json:"artifact"`
			Unique     bool                    `json:"unique"`
			Rounds     int                     `json:"rounds"`
			Messages   int64                   `json:"messages"`
			Violations []campaign.Violation    `json:"violations"`
		}{artifact, res.Unique, res.Rounds, res.Messages, viols}); err != nil {
			return 0, err
		}
	} else {
		fmt.Fprintf(stdout, "replay    algo=%s n=%d N=%d seed=%d events=%d byz=%d\n",
			artifact.Algo, artifact.N, artifact.BigN, artifact.Seed,
			len(artifact.Strategy.Schedule), len(artifact.Strategy.Byzantine))
		fmt.Fprintf(stdout, "recorded  [%s] %s\n", artifact.Invariant, artifact.Detail)
		fmt.Fprintf(stdout, "unique=%v order=%v rounds=%d messages=%d crashes=%d byzantine=%d\n",
			res.Unique, res.OrderPreserving, res.Rounds, res.Messages, res.Crashes, res.Byzantine)
		if len(viols) == 0 {
			fmt.Fprintln(stdout, "oracle: no violation on replay (fixed, or the artifact's oracle differed from the default)")
		}
		for _, v := range viols {
			fmt.Fprintf(stdout, "oracle: [%s] %s\n", v.Invariant, v.Detail)
		}
	}
	if len(viols) > 0 {
		return 1, nil
	}
	return 0, nil
}

func fmtF(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}
