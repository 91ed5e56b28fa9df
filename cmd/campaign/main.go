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
// The process exits 1 when any invariant violation was detected, so a
// campaign run doubles as a CI gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"renaming/internal/campaign"
	"renaming/internal/profiling"
	"renaming/internal/runner"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		algo       = flag.String("algo", "crash", "crash | byzantine | baseline-a2a | service")
		n          = flag.Int("n", 256, "number of nodes")
		bigN       = flag.Int("N", 0, "original namespace size (default 16·n, byzantine 8·n)")
		execs      = flag.Int("execs", 500, "number of randomized executions")
		seed       = flag.Int64("seed", 1, "campaign master seed (all strategies and executions derive from it)")
		gen        = flag.String("gen", "", "strategy generator: early-burst | trickle | targeted | mixed | byz-uniform | byz-skew | byz-silent | mixed-fault | churn (default mixed / byz-uniform / churn)")
		epochs     = flag.Int("epochs", 0, "epochs per service execution (-algo service; default 24)")
		budget     = flag.Int("budget", campaign.BudgetDefault, "max crashes / Byzantine nodes per execution (-1 = default n/4 or byzantine assumption bound; 0 = zero-fault campaign)")
		scale      = flag.Float64("committee-scale", 0, "crash election-constant scale (default 0.02)")
		poolProb   = flag.Float64("pool-prob", 0, "Byzantine candidate-pool probability (default 20/n)")
		workers    = flag.Int("workers", 0, "concurrent executions (default GOMAXPROCS); artifacts are byte-identical at any count")
		outPath    = flag.String("out", "", "append one JSONL telemetry record per execution (docs/OBSERVABILITY.md)")
		shrinkDir  = flag.String("shrink-dir", "", "shrink the first violation of each invariant to a replayable artifact in this directory")
		replay     = flag.String("replay", "", "replay a shrunk artifact instead of running a campaign")
		roundCeil  = flag.Int("round-ceiling", 0, "override the oracle's round ceiling (demo/debug; one-shot algos only; 0 = theorem bound)")
		search     = flag.Bool("search", false, "fitness-guided adversary search instead of uniform sampling (crash, baseline-a2a, byzantine; docs/CAMPAIGNS.md, Search mode)")
		budgetEx   = flag.Int("budget-execs", 0, "total executions the search may spend (default -execs)")
		objective  = flag.String("objective", "rounds", "search fitness: rounds | envelope")
		asJSON     = flag.Bool("json", false, "emit the outcome summary (tails + violations) as JSON")
		progress   = flag.Bool("progress", false, "live progress line on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this path (go tool pprof)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "campaign: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return 0, err
	}

	if *replay != "" {
		code, err := replayArtifact(*replay, *asJSON)
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
		spec.Sinks = append(spec.Sinks, &runner.ProgressSink{W: os.Stderr})
	}

	if *search {
		budget := *budgetEx
		if budget <= 0 {
			budget = *execs
		}
		return runSearch(campaign.SearchSpec{
			Base:        spec,
			Objective:   campaign.Objective(*objective),
			BudgetExecs: budget,
		}, *asJSON, *shrinkDir, stopProfiles)
	}

	start := time.Now()
	outcome, err := campaign.Run(spec)
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	var artifacts []string
	if *shrinkDir != "" && len(outcome.Violations) > 0 {
		artifacts, err = shrinkFirstPerInvariant(outcome, *shrinkDir)
		if err != nil {
			return 0, err
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
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
		printOutcome(outcome, artifacts)
	}
	// Volatile provenance goes to stderr so stdout diffs cleanly across
	// runs and worker counts (same convention as cmd/benchtables).
	fmt.Fprintf(os.Stderr, "campaign: %d executions in %s\n", outcome.Spec.Executions, elapsed)
	if err := stopProfiles(); err != nil {
		return 0, err
	}
	if len(outcome.Violations) > 0 {
		return 1, nil
	}
	return 0, nil
}

// runSearch executes the fitness-guided search path of -search.
func runSearch(spec campaign.SearchSpec, asJSON bool, shrinkDir string, stopProfiles func() error) (int, error) {
	start := time.Now()
	out, err := campaign.Search(spec)
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	var artifacts []string
	if shrinkDir != "" && len(out.Violations) > 0 {
		// The search's violations ride the same shrink path as a
		// campaign's: single-execution spec + recorded strategy.
		artifacts, err = shrinkFirstPerInvariant(&campaign.Outcome{
			Spec: out.Base, Violations: out.Violations,
		}, shrinkDir)
		if err != nil {
			return 0, err
		}
	}

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Algo        campaign.Algo             `json:"algo"`
			Objective   campaign.Objective        `json:"objective"`
			N           int                       `json:"n"`
			Seed        int64                     `json:"seed"`
			BudgetExecs int                       `json:"budgetExecs"`
			ExecsUsed   int                       `json:"execsUsed"`
			Best        campaign.Candidate        `json:"best"`
			Arms        []campaign.ArmStat        `json:"arms"`
			Generations []campaign.GenerationStat `json:"generations"`
			Violations  []campaign.Violation      `json:"violations"`
			Artifacts   []string                  `json:"artifacts,omitempty"`
		}{out.Base.Algo, out.Objective, out.Base.N, out.Base.Seed,
			spec.BudgetExecs, out.ExecsUsed, out.Best, out.Arms,
			out.Generations, out.Violations, artifacts}); err != nil {
			return 0, err
		}
	} else {
		printSearchOutcome(out, artifacts)
	}
	fmt.Fprintf(os.Stderr, "campaign: search spent %d executions in %s\n", out.ExecsUsed, elapsed)
	if err := stopProfiles(); err != nil {
		return 0, err
	}
	if len(out.Violations) > 0 {
		return 1, nil
	}
	return 0, nil
}

func printSearchOutcome(out *campaign.SearchOutcome, artifacts []string) {
	b := out.Base
	fmt.Printf("search    algo=%s objective=%s n=%d N=%d budget=%d execs=%d seed=%d\n",
		b.Algo, out.Objective, b.N, b.BigN, b.Budget, out.ExecsUsed, b.Seed)
	fmt.Printf("best      fitness=%s generator=%s op=%s gen=%d exec=%d events=%d byz=%d\n",
		fmtF(out.Best.Fitness), out.Best.Strategy.Generator, out.Best.Op,
		out.Best.Gen, out.Best.Exec,
		len(out.Best.Strategy.Schedule), len(out.Best.Strategy.Byzantine))
	fmt.Printf("%-16s %8s %10s\n", "family", "pulls", "mean")
	for _, arm := range out.Arms {
		fmt.Printf("%-16s %8d %10.3f\n", arm.Kind, arm.Pulls, arm.Mean)
	}
	fmt.Printf("%-6s %-8s %8s %10s %10s\n", "gen", "kind", "execs", "best", "mean")
	for _, g := range out.Generations {
		fmt.Printf("%-6d %-8s %8d %10s %10.3f\n", g.Gen, g.Kind, g.Execs, fmtF(g.Best), g.Mean)
	}
	if len(out.Violations) == 0 {
		fmt.Printf("violations: 0 across %d executions\n", out.ExecsUsed)
	} else {
		fmt.Printf("violations: %d\n", len(out.Violations))
		for i, v := range out.Violations {
			if i >= 10 {
				fmt.Printf("  … and %d more\n", len(out.Violations)-i)
				break
			}
			fmt.Printf("  exec %d seed %d [%s] %s\n", v.Exec, v.Seed, v.Invariant, v.Detail)
		}
	}
	for _, path := range artifacts {
		fmt.Printf("shrunk reproducer: %s (replay with -replay %s)\n", path, path)
	}
}

func printOutcome(outcome *campaign.Outcome, artifacts []string) {
	s := outcome.Spec
	fmt.Printf("campaign  algo=%s gen=%s n=%d N=%d budget=%d execs=%d seed=%d\n",
		s.Algo, s.Generator, s.N, s.BigN, s.Budget, s.Executions, s.Seed)
	fmt.Printf("%-16s %12s %12s %12s %12s %14s %8s\n",
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
		fmt.Printf("%-16s %12s %12s %12s %12s %14s %8s\n",
			tail.Metric, fmtF(tail.P50), fmtF(tail.P95), fmtF(tail.P99), fmtF(tail.Max), envelope, ok)
	}
	if len(outcome.Violations) == 0 {
		fmt.Printf("violations: 0 across %d executions\n", s.Executions)
		return
	}
	fmt.Printf("violations: %d\n", len(outcome.Violations))
	shown := 0
	for _, v := range outcome.Violations {
		if shown >= 10 {
			fmt.Printf("  … and %d more\n", len(outcome.Violations)-shown)
			break
		}
		fmt.Printf("  exec %d seed %d [%s] %s\n", v.Exec, v.Seed, v.Invariant, v.Detail)
		shown++
	}
	for _, path := range artifacts {
		fmt.Printf("shrunk reproducer: %s (replay with -replay %s)\n", path, path)
	}
}

// shrinkFirstPerInvariant shrinks the first violation of each distinct
// invariant and writes one artifact per invariant into dir.
func shrinkFirstPerInvariant(outcome *campaign.Outcome, dir string) ([]string, error) {
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
			fmt.Fprintf(os.Stderr, "campaign: shrink %s: %v\n", v.Invariant, err)
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

func replayArtifact(path string, asJSON bool) (int, error) {
	artifact, err := campaign.LoadArtifact(path)
	if err != nil {
		return 0, err
	}
	res, viols, err := artifact.Replay()
	if err != nil {
		return 0, err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
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
		fmt.Printf("replay    algo=%s n=%d N=%d seed=%d events=%d byz=%d\n",
			artifact.Algo, artifact.N, artifact.BigN, artifact.Seed,
			len(artifact.Strategy.Schedule), len(artifact.Strategy.Byzantine))
		fmt.Printf("recorded  [%s] %s\n", artifact.Invariant, artifact.Detail)
		fmt.Printf("unique=%v order=%v rounds=%d messages=%d crashes=%d byzantine=%d\n",
			res.Unique, res.OrderPreserving, res.Rounds, res.Messages, res.Crashes, res.Byzantine)
		if len(viols) == 0 {
			fmt.Println("oracle: no violation on replay (fixed, or the artifact's oracle differed from the default)")
		}
		for _, v := range viols {
			fmt.Printf("oracle: [%s] %s\n", v.Invariant, v.Detail)
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
