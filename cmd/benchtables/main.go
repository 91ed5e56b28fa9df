// Command benchtables regenerates every table and figure of the
// reproduction (DESIGN.md §4): the Table 1 comparison, the scaling
// claims of Theorems 1.2/1.3, the Theorem 1.4 lower bound, the O(log N)
// message-size bound, and the A1/A2 design ablations.
//
// Sweeps fan out across a worker pool (internal/runner); tables are
// byte-identical at any -workers count. Every run also emits a JSONL
// telemetry artifact (one record per sweep point — see
// docs/OBSERVABILITY.md), which -resume replays to skip
// already-completed points.
//
// Usage:
//
//	benchtables                 # run everything at full scale
//	benchtables -quick          # run everything at reduced scale
//	benchtables -full           # also run the 16384/32768-node points
//	benchtables -huge           # also run the million-node tier (implies -full)
//	benchtables -experiment e3  # run a single experiment by id
//	benchtables -workers 8      # fan sweep points across 8 workers
//	benchtables -out run.jsonl  # telemetry artifact path ("" disables)
//	benchtables -resume         # skip points already in -out
//	benchtables -csv run.csv    # also emit a flat CSV of the records
//	benchtables -seed 7         # remix all canonical seeds (fresh universe)
//
// Tables go to stdout; progress and per-table provenance (wall-clock,
// seed) go to stderr, so stdout can be diffed across runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"renaming/internal/experiments"
	"renaming/internal/profiling"
	"renaming/internal/runner"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run() error {
	quick := flag.Bool("quick", false, "reduced sweep sizes (seconds instead of minutes)")
	full := flag.Bool("full", false, "unlock the 16384/32768-node scaling points (minutes; ignored with -quick)")
	huge := flag.Bool("huge", false, "unlock the million-node tier on top of -full (implies -full; tens of minutes, ~12 GB peak heap; see docs/MEMORY.md)")
	experiment := flag.String("experiment", "", "run a single experiment id (e1 e2 e3 e3n e4 e5 e5n e6 e7 e8 e8c a1 a2 a3)")
	markdown := flag.Bool("markdown", false, "render tables as Markdown (for EXPERIMENTS.md)")
	svgDir := flag.String("svgdir", "", "also write each experiment's figures as SVG into this directory")
	workers := flag.Int("workers", 0, "concurrent sweep points (0 = GOMAXPROCS); tables are identical at any setting")
	out := flag.String("out", "run.jsonl", "JSONL telemetry artifact path (empty disables)")
	csvPath := flag.String("csv", "", "also write records as CSV to this path")
	resume := flag.Bool("resume", false, "replay points already recorded in -out instead of re-running them")
	seed := flag.Int64("seed", 0, "sweep seed remixing every canonical point seed (0 keeps the canonical seeds of EXPERIMENTS.md)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this path (go tool pprof)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchtables: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}

	cfg := experiments.Config{
		Quick:     *quick,
		Full:      *full || *huge,
		Huge:      *huge,
		Workers:   *workers,
		SweepSeed: *seed,
	}

	// -resume loads the previous artifact before -out truncates it.
	if *resume {
		if *out == "" {
			return fmt.Errorf("-resume needs -out")
		}
		f, err := os.Open(*out)
		switch {
		case os.IsNotExist(err):
			fmt.Fprintf(os.Stderr, "resume: no artifact at %s, running everything\n", *out)
		case err != nil:
			return err
		default:
			art, err := runner.LoadArtifact(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("resume %s: %w", *out, err)
			}
			cfg.Resume = art
			fmt.Fprintf(os.Stderr, "resume: %d completed points loaded from %s\n", art.Len(), *out)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Sinks = append(cfg.Sinks, &runner.JSONLSink{W: f})
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Sinks = append(cfg.Sinks, runner.NewCSVSink(f))
	}
	cfg.Sinks = append(cfg.Sinks, &runner.ProgressSink{W: os.Stderr})

	render := func(table *experiments.Table) error {
		if *markdown {
			fmt.Println(table.Markdown())
		} else {
			fmt.Println(table)
		}
		seedNote := "canonical"
		if table.SweepSeed != 0 {
			seedNote = fmt.Sprintf("%d", table.SweepSeed)
		}
		fmt.Fprintf(os.Stderr, "[%s] wall-clock %s, seed %s\n",
			table.ID, table.Elapsed.Round(time.Millisecond), seedNote)
		if *svgDir == "" {
			return nil
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		for i, chart := range table.Charts {
			name := fmt.Sprintf("%s.svg", table.ID)
			if i > 0 {
				name = fmt.Sprintf("%s-%d.svg", table.ID, i+1)
			}
			f, err := os.Create(filepath.Join(*svgDir, name))
			if err != nil {
				return err
			}
			if err := chart.WriteSVG(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", filepath.Join(*svgDir, name))
		}
		return nil
	}
	ids := experiments.IDs()
	if *experiment != "" {
		ids = []string{*experiment}
	}
	start := time.Now()
	for _, id := range ids {
		table, err := experiments.ByID(id, cfg)
		if err != nil {
			return err
		}
		if err := render(table); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "elapsed: %s\n", time.Since(start).Round(time.Millisecond))
	if *out != "" {
		fmt.Fprintf(os.Stderr, "telemetry artifact: %s\n", *out)
	}
	return stopProfiles()
}
