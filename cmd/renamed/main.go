// Command renamed drives the long-lived renaming service
// (internal/service) through a seeded churn trace: every epoch batches
// the joins and leaves the trace draws, runs the one-shot protocol over
// the join batch, recycles released names through the free list, and
// re-checks the service invariants with the campaign oracle. One JSONL
// telemetry record per epoch goes to -out (docs/OBSERVABILITY.md, with
// the epoch field keying records to epochs).
//
// Examples:
//
//	renamed -n 1024 -epochs 100
//	renamed -n 4096 -epochs 200 -faults 32 -out churn.jsonl
//	renamed -n 256 -core byzantine -epochs 50 -workers 8
//
// Determinism: the stdout summary and the -out artifact are
// byte-identical at any -workers count (the flag sets the round
// engine's worker pool inside each epoch; epochs themselves are
// stateful and strictly sequential). The process exits 1 when the
// oracle flags any invariant violation, 2 on errors, so a churn run
// doubles as a CI gate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"renaming/internal/campaign"
	"renaming/internal/profiling"
	"renaming/internal/runner"
	"renaming/internal/service"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renamed:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run is main with its arguments and output streams passed in, so tests
// drive it in-process. It returns the exit code: 0 when every epoch
// passes the oracle (or -h), 1 on an oracle violation, and 2 on a usage
// error; a non-nil error also exits 2.
func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("renamed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		capacity   = fs.Int("n", 1024, "service namespace capacity (bounds the live population)")
		bigN       = fs.Int("N", 0, "original namespace joiner identities are drawn from (default 16·n)")
		epochs     = fs.Int("epochs", 100, "number of join/leave epochs to run")
		seed       = fs.Int64("seed", 1, "master seed: trace, per-epoch one-shot runs, and fault schedule all derive from it")
		core       = fs.String("core", "crash", "one-shot core per epoch: crash | byzantine")
		joinMax    = fs.Int("join-max", 0, "max joins per epoch (default max(1, n/8))")
		leaveMax   = fs.Int("leave-max", 0, "max leaves per epoch (default join-max)")
		faults     = fs.Int("faults", 0, "churn-adversary crash budget across the whole trace (0 = fault-free)")
		workers    = fs.Int("workers", 0, "round-engine workers inside each epoch (default GOMAXPROCS); output is byte-identical at any count")
		outPath    = fs.String("out", "", "append one JSONL record per epoch")
		csvPath    = fs.String("csv", "", "write per-epoch records as CSV")
		volatile   = fs.Bool("volatile", false, "keep wall-clock and allocation fields in -out records (off: byte-comparable artifacts)")
		profile    = fs.Bool("profile", false, "record per-epoch round traffic profiles into the JSONL records")
		progress   = fs.Bool("progress", false, "live progress line on stderr")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this path (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this path (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "renamed: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2, nil
	}

	if *epochs <= 0 {
		return 0, fmt.Errorf("-epochs must be positive, got %d", *epochs)
	}
	svcCore := service.Core(*core)
	if svcCore != service.CoreCrash && svcCore != service.CoreByzantine {
		return 0, fmt.Errorf("unknown core %q", *core)
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return 0, err
	}

	driver, err := service.NewTraceDriver(service.TraceSpec{
		Capacity: *capacity, BigN: *bigN,
		JoinMax: *joinMax, LeaveMax: *leaveMax,
		Seed: *seed,
	})
	if err != nil {
		return 0, err
	}
	if *bigN == 0 {
		*bigN = 16 * *capacity
	}
	cfg := service.Config{
		Capacity: *capacity, BigN: *bigN, Seed: *seed, Core: svcCore,
		EngineWorkers: *workers, Profile: *profile,
	}
	if *faults > 0 {
		// The fault schedule is a campaign churn strategy pinned to the
		// master seed: crashes land inside epoch one-shot runs across the
		// whole trace, exactly as campaign executions replay them.
		strat, err := campaign.Generate(campaign.GenSpec{
			Kind: campaign.GenChurn, N: *capacity, Budget: *faults,
			Rounds:   campaign.CrashRoundCeiling(driver.JoinMax()),
			Epochs:   *epochs,
			BatchMax: driver.JoinMax(),
		}, *seed)
		if err != nil {
			return 0, err
		}
		cfg.FaultForEpoch = strat.ChurnFault()
	}
	svc, err := service.New(cfg)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	oracle := campaign.NewServiceOracle(*capacity, svcCore)

	var sinks []runner.Sink
	if *outPath != "" {
		out, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return 0, err
		}
		defer out.Close()
		sinks = append(sinks, &runner.JSONLSink{W: out, OmitVolatile: !*volatile})
	}
	if *csvPath != "" {
		out, err := os.Create(*csvPath)
		if err != nil {
			return 0, err
		}
		defer out.Close()
		sinks = append(sinks, runner.NewCSVSink(out))
	}
	var prog *runner.ProgressSink
	if *progress {
		prog = &runner.ProgressSink{W: stderr}
		prog.StartSweep("churn", *epochs)
	}

	var (
		violations []campaign.Violation
		totals     struct {
			joined, failed, released, recycled, aborted int
			rounds                                      int
			messages, bits                              int64
			crashes                                     int
		}
	)
	start := time.Now()
	for epoch := 0; epoch < *epochs; epoch++ {
		joins, leaves, err := driver.NextEpoch(svc.LiveClients())
		if err != nil {
			return 0, err
		}
		er, err := svc.RunEpoch(joins, leaves)
		if err != nil {
			return 0, err
		}
		viols := oracle.CheckEpoch(er)
		violations = append(violations, viols...)

		totals.joined += er.Joined
		totals.failed += er.FailedJoins
		totals.released += len(er.Released)
		totals.recycled += er.Recycled
		totals.rounds += er.Rounds
		totals.messages += er.Messages
		totals.bits += er.Bits
		totals.crashes += er.Crashes
		if er.Aborted {
			totals.aborted++
		}

		rec := epochRecord(er, *seed, *capacity)
		for _, v := range viols {
			rec.Metrics.Violations = append(rec.Metrics.Violations, v.Invariant)
		}
		for _, sink := range sinks {
			if err := sink.Write(rec); err != nil {
				return 0, err
			}
		}
		if prog != nil {
			if err := prog.Write(rec); err != nil {
				return 0, err
			}
		}
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	// The summary is deterministic in (flags, seed): volatile provenance
	// goes to stderr so stdout diffs cleanly across runs and -workers.
	fmt.Fprintf(stdout, "churn     core=%s n=%d N=%d epochs=%d join-max=%d faults=%d seed=%d\n",
		svcCore, svc.Capacity(), cfg.BigN, *epochs, driver.JoinMax(), *faults, *seed)
	fmt.Fprintf(stdout, "service   joined=%d failed=%d released=%d recycled=%d aborted=%d live=%d free=%d\n",
		totals.joined, totals.failed, totals.released, totals.recycled,
		totals.aborted, svc.Live(), svc.FreeNames())
	fmt.Fprintf(stdout, "one-shot  rounds=%d messages=%d bits=%d crashes=%d\n",
		totals.rounds, totals.messages, totals.bits, totals.crashes)
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "violations: 0 across %d epochs\n", *epochs)
	} else {
		fmt.Fprintf(stdout, "violations: %d\n", len(violations))
		for i, v := range violations {
			if i >= 10 {
				fmt.Fprintf(stdout, "  … and %d more\n", len(violations)-i)
				break
			}
			fmt.Fprintf(stdout, "  epoch %d [%s] %s\n", v.Epoch, v.Invariant, v.Detail)
		}
	}
	fmt.Fprintf(stderr, "renamed: %d epochs in %s\n", *epochs, elapsed)
	if err := stopProfiles(); err != nil {
		return 0, err
	}
	if len(violations) > 0 {
		return 1, nil
	}
	return 0, nil
}

// epochRecord shapes one epoch result as a runner telemetry record; the
// record seed is the epoch's own one-shot seed, so any epoch can be
// reproduced in isolation.
func epochRecord(er *service.EpochResult, seed int64, capacity int) runner.Record {
	m := runner.Metrics{
		Rounds:          er.Rounds,
		Messages:        er.Messages,
		Bits:            er.Bits,
		HonestMessages:  er.HonestMessages,
		HonestBits:      er.HonestBits,
		Crashes:         er.Crashes,
		Byzantine:       er.Byzantine,
		CommitteeSize:   er.CommitteeSize,
		Unique:          er.Unique,
		OrderPreserving: true,
		AssumptionHolds: er.AssumptionHolds,
		Trace:           er.RoundStats,
		Extra: map[string]float64{
			"joinsRequested":  float64(er.JoinsRequested),
			"leavesRequested": float64(er.LeavesRequested),
			"joined":          float64(er.Joined),
			"failedJoins":     float64(er.FailedJoins),
			"released":        float64(len(er.Released)),
			"recycled":        float64(er.Recycled),
			"live":            float64(er.Live),
			"freeNames":       float64(er.FreeNames),
			"peakLive":        float64(er.PeakLive),
		},
	}
	if er.Aborted {
		m.Extra["aborted"] = 1
	}
	name := fmt.Sprintf("epoch=%d/join=%d/leave=%d", er.Epoch, er.JoinsRequested, er.LeavesRequested)
	return runner.Record{
		Experiment: "churn",
		Index:      er.Epoch,
		Epoch:      er.Epoch,
		Name:       name,
		Seed:       service.EpochSeed(seed, er.Epoch),
		Params:     map[string]string{"n": fmt.Sprint(capacity)},
		Metrics:    m,
	}
}
