package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"renaming/internal/stats"
)

type runConfig struct {
	seed    int64
	seconds int
	size    size
	// spawn measures each part of an untraced run in a child process of
	// this executable; tests measure the parts in-process.
	spawn bool
}

// report is one run's outcome: the metrics by name, the op tally, and
// the problems (golden or cross-check mismatches) that make it incorrect.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	spans     []span
}

// clock is a wall and process CPU time stamp.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func now() clock { return clock{time.Now(), cpuTime()} }

// elapsed returns the wall and CPU milliseconds since c.
func (c clock) elapsed() (wallMs, cpuMs float64) {
	cpu := cpuTime()
	return ms(time.Since(c.wall)), ms(cpu - c.cpu)
}

// cpuTime is the process's user plus system time, over every thread.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// part is one measuring process's share of an untraced run, as it
// reports it to the coordinating process.
type part struct {
	Ms       []float64 `json:"ms"`     // wall time of every op, in run order
	Window   counts    `json:"window"` // count sums over the part's first partOps ops
	Failed   int       `json:"failed"`
	Problems []string  `json:"problems,omitempty"`
	Setups   []float64 `json:"setups"` // wall seconds of each set-up
	RSSMiB   float64   `json:"rss_mib"`
	Slowdown float64   `json:"slowdown"` // hostSlowdown, timed before anything else
}

// maxProblems caps the problems a part reports; the failure count is exact.
const maxProblems = 5

func (p *part) problem(format string, args ...any) {
	if len(p.Problems) < maxProblems {
		p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
	}
}

// measurePart sets the workload up, checking each warm-up against the
// golden counts, then runs part k's ops in a closed loop until at least
// partOps have completed and the part's share of the time has passed.
func measurePart(w workload, cfg runConfig, k int) (*part, error) {
	sz := cfg.size
	p := &part{Slowdown: hostSlowdown()}
	for r := 0; r < sz.setups; r++ {
		start := time.Now()
		got, err := w.setup()
		p.Setups = append(p.Setups, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if sz.golden {
			if err := checkGolden(w.name(), got); err != nil {
				p.problem("%v", err)
			}
		}
	}
	window := sz.partOps(w)
	budget := time.Duration(cfg.seconds) * time.Second / time.Duration(sz.parts)
	start := time.Now()
	for j := 0; j < window || time.Since(start) < budget; j++ {
		rec := w.run(k*partStride + j)
		p.Ms = append(p.Ms, rec.ms)
		if rec.err != nil {
			p.Failed++
			p.problem("op %d: %v", k*partStride+j, rec.err)
		}
		if j < window {
			p.Window.add(rec.counts)
		}
	}
	rss, err := peakRSSMiB()
	p.RSSMiB = rss
	return p, err
}

// untracedRun measures the workload's parts one after another and pools
// them: percentiles over every op of every part, set-up time and peak
// RSS as medians over the parts. Each part's times are scaled to the
// nominal host speed by its own slowdown.
func untracedRun(w workload, cfg runConfig) (*report, error) {
	sz := cfg.size
	out := &report{}
	var opMs, setups, rss []float64
	var window counts
	for k := 0; k < sz.parts; k++ {
		var p *part
		var err error
		if cfg.spawn {
			p, err = spawnPart(w.name(), cfg, k)
		} else {
			p, err = measurePart(w, cfg, k)
		}
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", k, err)
		}
		for _, t := range p.Ms {
			opMs = append(opMs, t/p.Slowdown)
		}
		for _, t := range p.Setups {
			setups = append(setups, t/p.Slowdown)
		}
		rss = append(rss, p.RSSMiB)
		window.add(p.Window)
		out.failed += p.Failed
		out.problems = append(out.problems, p.Problems...)
	}
	out.attempted = len(opMs)
	windowOps := float64(sz.parts * sz.partOps(w))
	out.metrics = map[string]float64{
		"setup_s":       quantile(setups, 0.5),
		"ops_per_s":     float64(len(opMs)) / (sum(opMs) / 1e3),
		"op_ms_p50":     quantile(opMs, 0.5),
		"op_ms_p90":     quantile(opMs, 0.9),
		"op_ms_tail":    quantile(opMs, sz.tail(w)),
		"msgs_per_op":   float64(window.Msgs) / windowOps,
		"bits_per_op":   float64(window.Bits) / windowOps,
		"rounds_per_op": float64(window.Rounds) / windowOps,
		"peak_rss_mb":   quantile(rss, 0.5),
	}
	return out, nil
}

// spawnPart measures part k in a child process, which prints the part
// as its last line of standard output.
func spawnPart(name string, cfg runConfig, k int) (*part, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-part", strconv.Itoa(k))
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var p part
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		return nil, fmt.Errorf("part output: %w", err)
	}
	return &p, nil
}

// loop runs ops 0, 1, … in a closed loop until at least minOps have
// completed and the budget has passed.
func loop(w workload, minOps int, budget time.Duration) []opRecord {
	var recs []opRecord
	start := time.Now()
	for len(recs) < minOps || time.Since(start) < budget {
		recs = append(recs, w.run(len(recs)))
	}
	return recs
}

// tracedRun measures the ops untraced in one process for half the time
// budget, then replays exactly those ops through the layer calls with
// spans on. The two passes must agree op by op on messages, bits and
// rounds. Its times are not scaled; host.slowdown says by how much the
// host was slower than nominal.
func tracedRun(w workload, cfg runConfig) (*report, error) {
	slowdown := hostSlowdown()
	if _, err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := loop(w, cfg.size.minOps(w), time.Duration(cfg.seconds)*time.Second/2)
	runtime.ReadMemStats(&after)
	if _, err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	b := make([]opRecord, len(a))
	for i := range b {
		b[i] = w.trace(i, tr)
	}
	out := &report{attempted: len(a), spans: tr.spans}
	for i := range a {
		ra, rb := &a[i], &b[i]
		switch {
		case ra.err != nil:
		case rb.err != nil:
			ra.err = fmt.Errorf("traced replay: %w", rb.err)
		case ra.counts != rb.counts:
			ra.err = fmt.Errorf("traced counts %+v differ from untraced %+v", rb.counts, ra.counts)
		}
		if ra.err != nil {
			out.failed++
			if out.failed <= maxProblems {
				out.problems = append(out.problems, fmt.Sprintf("op %d: %v", i, ra.err))
			}
		}
	}
	out.metrics = layerMetrics(w, a, b, tr, memDelta{after.TotalAlloc - before.TotalAlloc, after.NumGC - before.NumGC})
	out.metrics["host.slowdown"] = slowdown
	return out, nil
}

// memDelta is the allocation and GC cycles over the untraced loop.
type memDelta struct {
	alloc uint64
	gcs   uint32
}

// counts are an op's deterministic protocol costs, the paper's units.
type counts struct {
	Msgs   int64 `json:"msgs"`
	Bits   int64 `json:"bits"`
	Rounds int64 `json:"rounds"`
}

func (c *counts) add(o counts) {
	c.Msgs += o.Msgs
	c.Bits += o.Bits
	c.Rounds += o.Rounds
}

func column(recs []opRecord, field func(opRecord) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = field(r)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile is the nearest-rank quantile, 0 for an empty sample: a layer
// the workload never reaches reports 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 2 && fields[1] == "kB" {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak RSS: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// goldenJSON pins each workload's warm-up counts at full size. The
// warm-up's seed is fixed, so every run checks them, whatever its seed,
// and a change that alters protocol output fails the benchmark.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]counts, error) {
	var g map[string]counts
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func checkGolden(name string, got counts) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if want, ok := g[name]; !ok || got != want {
		return fmt.Errorf("warm-up counts %+v differ from the golden %+v", got, want)
	}
	return nil
}
