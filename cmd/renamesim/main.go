// Command renamesim runs a single renaming execution and prints its
// outcome and communication metrics.
//
// Examples:
//
//	renamesim -n 256                              # crash algorithm, no failures
//	renamesim -n 256 -fault killer -f 64          # adaptive committee killer
//	renamesim -n 96 -algo byzantine -f 8          # split-world Byzantine nodes
//	renamesim -n 128 -algo baseline-a2a -fault random -f 32
//	renamesim -n 128 -strategy mixed -f 32        # campaign strategy generator
//
// Campaign artifacts replay with cmd/campaign -replay.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"renaming"
	"renaming/internal/campaign"
	"renaming/internal/profiling"
	"renaming/internal/runner"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "renamesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 64, "number of nodes")
		bigN     = flag.Int("N", 0, "original namespace size (default 16·n)")
		seed     = flag.Int64("seed", 1, "run seed (all randomness derives from it)")
		algo     = flag.String("algo", "crash", "crash | byzantine | baseline-a2a | baseline-sort | baseline-byz")
		fault    = flag.String("fault", "none", "none | random | killer | burst (crash algorithms)")
		f        = flag.Int("f", 0, "failure budget / number of Byzantine nodes")
		scale    = flag.Float64("committee-scale", 0.02, "crash election-constant scale (1 = paper constant)")
		poolProb = flag.Float64("pool-prob", 0, "Byzantine candidate-pool probability override (0 = paper formula)")
		behavior = flag.String("behavior", "splitworld", "silent | splitworld | minoritysplit | equivocate | rushing | spam")
		doTrace  = flag.Bool("trace", false, "print a per-round traffic timeline")
		asJSON   = flag.Bool("json", false, "emit the result as JSON (for scripting)")
		early    = flag.Bool("early-stop", false, "enable the crash algorithm's early-stopping extension")
		verbose  = flag.Bool("v", false, "print the per-link renaming")
		outPath  = flag.String("out", "", "append the run as one JSONL telemetry record (docs/OBSERVABILITY.md)")
		strategy = flag.String("strategy", "", "campaign strategy generator: early-burst | trickle | targeted | mixed (-algo crash, baseline-a2a) or byz-uniform | byz-skew | byz-silent | mixed-fault (-algo byzantine); empty keeps -fault/-behavior semantics. Churn strategies and artifact replay live in cmd/campaign")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this path (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this path (docs/MEMORY.md walks through one)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "renamesim: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "renamesim: profiling:", err)
		}
	}()

	if *n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", *n)
	}
	if *f < 0 || *f >= *n {
		return fmt.Errorf("-f must satisfy 0 <= f < n, got f=%d n=%d", *f, *n)
	}

	faultSpec := renaming.FaultSpec{Kind: renaming.FaultNone}
	switch *fault {
	case "none":
	case "random":
		faultSpec = renaming.FaultSpec{Kind: renaming.FaultRandom, Budget: *f, Prob: 0.05, MidSend: true}
	case "killer":
		faultSpec = renaming.FaultSpec{Kind: renaming.FaultCommitteeKiller, Budget: *f, MidSend: true}
	case "burst":
		nodes := make([]int, *f)
		for i := range nodes {
			nodes[i] = i
		}
		faultSpec = renaming.FaultSpec{Kind: renaming.FaultBurst, Round: 3, Nodes: nodes}
	default:
		return fmt.Errorf("unknown fault %q", *fault)
	}

	// A campaign strategy generator overrides -fault (crash kinds) or the
	// -behavior corruption set (byz-* kinds). With -strategy unset,
	// behaviour is unchanged.
	var stratByz map[int]renaming.Behavior
	var stratByzFault renaming.FaultSpec
	if *strategy != "" {
		kind := campaign.GeneratorKind(*strategy)
		if kind == campaign.GenChurn {
			return fmt.Errorf("-strategy %s drives the long-lived service, which renamesim does not run; use cmd/campaign -algo service", kind)
		}
		if err := campaign.CheckGenerator(campaign.Algo(*algo), kind); err != nil {
			return fmt.Errorf("-strategy: %w", err)
		}
		strat, serr := campaign.Generate(campaign.GenSpec{
			Kind: kind, N: *n, Budget: *f, Rounds: campaign.CrashRoundCeiling(*n),
		}, *seed)
		if serr != nil {
			return serr
		}
		if kind.IsByz() {
			var merr error
			if stratByz, merr = strat.ByzMap(); merr != nil {
				return merr
			}
			// mixed-fault strategies crash honest nodes too; an empty
			// schedule crashes none.
			stratByzFault = strat.Fault()
		} else {
			faultSpec = strat.Fault()
		}
	}

	var traceOut *os.File
	if *doTrace {
		traceOut = os.Stdout
	}
	var exec func(seed int64) (*renaming.Result, error)
	switch *algo {
	case "crash":
		exec = func(seed int64) (*renaming.Result, error) {
			spec := renaming.CrashSpec{
				N: *bigN, Seed: seed, CommitteeScale: *scale, Fault: faultSpec,
				EarlyStop: *early, Profile: *outPath != "",
			}
			if traceOut != nil {
				spec.Trace = traceOut
			}
			return renaming.RunCrash(*n, spec)
		}
	case "byzantine":
		byz := stratByz
		if byz == nil {
			b, berr := campaign.ParseBehavior(*behavior)
			if berr != nil {
				return berr
			}
			links, lerr := renaming.AdversaryLinks(*n, *f)
			if lerr != nil {
				return lerr
			}
			byz = make(map[int]renaming.Behavior, *f)
			for _, link := range links {
				byz[link] = b
			}
		}
		exec = func(seed int64) (*renaming.Result, error) {
			spec := renaming.ByzSpec{
				N: *bigN, Seed: seed, PoolProb: *poolProb, Byzantine: byz,
				Fault:   stratByzFault,
				Profile: *outPath != "",
			}
			if traceOut != nil {
				spec.Trace = traceOut
			}
			return renaming.RunByzantine(*n, spec)
		}
	case "baseline-a2a":
		exec = func(seed int64) (*renaming.Result, error) {
			return renaming.RunBaseline(*n, renaming.BaselineSpec{
				Kind: renaming.BaselineAllToAllCrash, N: *bigN, Seed: seed, Fault: faultSpec,
			})
		}
	case "baseline-sort":
		exec = func(seed int64) (*renaming.Result, error) {
			return renaming.RunBaseline(*n, renaming.BaselineSpec{
				Kind: renaming.BaselineCollectSort, N: *bigN, Seed: seed,
			})
		}
	case "baseline-byz":
		links, lerr := renaming.AdversaryLinks(*n, *f)
		if lerr != nil {
			return lerr
		}
		exec = func(seed int64) (*renaming.Result, error) {
			return renaming.RunBaseline(*n, renaming.BaselineSpec{
				Kind: renaming.BaselineAllToAllByzantine, N: *bigN, Seed: seed, Byzantine: links,
			})
		}
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	var res *renaming.Result
	if *outPath == "" {
		var err error
		if res, err = exec(*seed); err != nil {
			return err
		}
	} else {
		// Route the run through the experiment runner so the telemetry
		// record matches what benchtables sweeps emit.
		out, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer out.Close()
		point := runner.Point{
			Experiment: "renamesim", Name: *algo, Seed: *seed, FixedSeed: true,
			Params: map[string]string{
				"n": fmt.Sprint(*n), "algo": *algo, "fault": *fault, "f": fmt.Sprint(*f),
			},
			Run: func(seed int64) (runner.Metrics, error) {
				r, err := exec(seed)
				if err != nil {
					return runner.Metrics{}, err
				}
				res = r
				return runner.FromResult(r, *n), nil
			},
		}
		recs, err := runner.Run([]runner.Point{point}, runner.Options{
			Workers: 1, Sinks: []runner.Sink{&runner.JSONLSink{W: out}},
		})
		if err != nil {
			return err
		}
		if recs[0].Err != "" {
			return fmt.Errorf("%s", recs[0].Err)
		}
		fmt.Fprintf(os.Stderr, "telemetry record appended to %s\n", *outPath)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Algorithm string
			N         int
			*renaming.Result
		}{Algorithm: *algo, N: *n, Result: res})
	}

	fmt.Printf("algorithm       %s\n", *algo)
	fmt.Printf("n               %d\n", *n)
	fmt.Printf("unique/strong   %v\n", res.Unique)
	fmt.Printf("order-preserving %v\n", res.OrderPreserving)
	fmt.Printf("crashes (f)     %d\n", res.Crashes)
	fmt.Printf("byzantine (f)   %d\n", res.Byzantine)
	fmt.Printf("rounds          %d\n", res.Rounds)
	fmt.Printf("messages        %d (honest %d)\n", res.Messages, res.HonestMessages)
	fmt.Printf("bits            %d (honest %d)\n", res.Bits, res.HonestBits)
	fmt.Printf("max message     %d bits\n", res.MaxMessageBits)
	fmt.Printf("max node load   %d sent / %d received\n", res.MaxNodeSent, res.MaxNodeReceived)
	if res.CommitteeSize > 0 {
		fmt.Printf("committee       %d (assumption holds: %v)\n", res.CommitteeSize, res.AssumptionHolds)
	}
	if res.Iterations > 0 {
		fmt.Printf("iterations      %d\n", res.Iterations)
	}
	kinds := make([]string, 0, len(res.PerKind))
	for k := range res.PerKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-10s %d\n", k, res.PerKind[k])
	}
	if *verbose {
		for link, id := range res.NewIDByLink {
			fmt.Printf("link %4d -> %d\n", link, id)
		}
	}
	return nil
}
