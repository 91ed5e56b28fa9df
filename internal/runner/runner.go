package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"renaming"
	"renaming/internal/sim"
)

// pointLabel is the DeriveSeed stream label for runner-derived point
// seeds ("runr"), mixed with the point index.
const pointLabel uint64 = 0x72756e72

// Point is one independent unit of work in a sweep: typically a single
// simulator execution, sometimes a small aggregate (a seed-averaged
// cell, a Monte-Carlo estimate). Run receives the point's resolved seed
// and returns the measured metrics.
type Point struct {
	// Experiment is the sweep id the point belongs to (e.g. "e3").
	Experiment string
	// Name labels the point within the sweep (e.g. "killer/f=64").
	Name string
	// Seed, when non-zero or when FixedSeed is set, is used verbatim;
	// otherwise the runner derives a seed from Options.SweepSeed and
	// the point index.
	Seed int64
	// FixedSeed forces Seed to be used verbatim even when it is zero.
	FixedSeed bool
	// Params records the swept parameters for the telemetry record.
	Params map[string]string
	// Epoch keys the point to a service epoch for long-lived (churn)
	// sweeps; 0 outside epoch-structured experiments.
	Epoch int
	// Run executes the point. It must be deterministic in seed.
	Run func(seed int64) (Metrics, error)
}

// Metrics is the domain measurement of one point — the quantities the
// paper's complexity claims are about, mirroring renaming.Result.
// Extra carries experiment-specific scalars (success rates, fitted
// budgets) for points that are not a single simulator run.
type Metrics struct {
	Rounds           int   `json:"rounds,omitempty"`
	Messages         int64 `json:"messages,omitempty"`
	Bits             int64 `json:"bits,omitempty"`
	HonestMessages   int64 `json:"honestMessages,omitempty"`
	HonestBits       int64 `json:"honestBits,omitempty"`
	MaxMessageBits   int   `json:"maxMessageBits,omitempty"`
	MaxNodeSent      int64 `json:"maxNodeSent,omitempty"`
	MaxNodeReceived  int64 `json:"maxNodeReceived,omitempty"`
	OversizeMessages int64 `json:"oversizeMessages,omitempty"`
	Crashes          int   `json:"crashes,omitempty"`
	Byzantine        int   `json:"byzantine,omitempty"`
	CommitteeSize    int   `json:"committeeSize,omitempty"`
	Iterations       int   `json:"iterations,omitempty"`
	// The three guarantee booleans are never omitted: a run that violates
	// a guarantee (e.g. unique=false) is precisely the record an artifact
	// reader must be able to distinguish from "not measured".
	Unique          bool `json:"unique"`
	OrderPreserving bool `json:"orderPreserving"`
	AssumptionHolds bool `json:"assumptionHolds"`
	// LoadSkew is MaxNodeSent divided by the mean per-node send count —
	// the committee-vs-plain-node asymmetry of both algorithms.
	LoadSkew float64 `json:"loadSkew,omitempty"`
	// PerKind breaks the message count down by payload kind.
	PerKind map[string]int64 `json:"perKind,omitempty"`
	// Trace is the per-round traffic profile (renaming spec Profile).
	Trace *renaming.RoundStats `json:"trace,omitempty"`
	// Extra carries experiment-specific scalars.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Violations lists invariant-oracle verdicts for points checked by a
	// campaign oracle (internal/campaign): one short code per violated
	// invariant, e.g. "uniqueness" or "round-ceiling". Empty/absent means
	// the execution passed every enabled check. JSONL-only (the CSV
	// column set is fixed); full structured violation records, including
	// the replayable strategy, live in the campaign outcome.
	Violations []string `json:"violations,omitempty"`
}

// FromResult converts a renaming execution result into runner metrics.
// n is the network size, used for the per-node load skew.
func FromResult(res *renaming.Result, n int) Metrics {
	m := Metrics{
		Rounds:           res.Rounds,
		Messages:         res.Messages,
		Bits:             res.Bits,
		HonestMessages:   res.HonestMessages,
		HonestBits:       res.HonestBits,
		MaxMessageBits:   res.MaxMessageBits,
		MaxNodeSent:      res.MaxNodeSent,
		MaxNodeReceived:  res.MaxNodeReceived,
		OversizeMessages: res.OversizeMessages,
		Crashes:          res.Crashes,
		Byzantine:        res.Byzantine,
		CommitteeSize:    res.CommitteeSize,
		Iterations:       res.Iterations,
		Unique:           res.Unique,
		OrderPreserving:  res.OrderPreserving,
		AssumptionHolds:  res.AssumptionHolds,
		Trace:            res.RoundStats,
	}
	if len(res.PerKind) > 0 {
		m.PerKind = make(map[string]int64, len(res.PerKind))
		for k, v := range res.PerKind {
			m.PerKind[k] = v
		}
	}
	if n > 0 && res.Messages > 0 {
		m.LoadSkew = float64(res.MaxNodeSent) * float64(n) / float64(res.Messages)
	}
	return m
}

// Record is the structured telemetry emitted for one completed point.
// WallClockMS and AllocBytes are the only scheduling-dependent fields;
// everything else is deterministic in the point and its seed.
type Record struct {
	Experiment string `json:"experiment"`
	Index      int    `json:"index"`
	// Epoch is the service epoch the record belongs to in epoch-
	// structured (churn) sweeps; omitted elsewhere.
	Epoch   int               `json:"epoch,omitempty"`
	Name    string            `json:"name"`
	Seed    int64             `json:"seed"`
	Params  map[string]string `json:"params,omitempty"`
	Metrics Metrics           `json:"metrics"`
	// WallClockMS is the point's execution wall-clock in milliseconds.
	WallClockMS float64 `json:"wallClockMs"`
	// AllocBytes is the heap-allocation delta over the run (global
	// counters: exact at Workers=1, an overestimate otherwise).
	AllocBytes uint64 `json:"allocBytes"`
	// Resumed marks a record replayed from a resume artifact rather
	// than executed.
	Resumed bool `json:"resumed,omitempty"`
	// Err is the point's failure, empty on success.
	Err string `json:"err,omitempty"`
}

// Options configures a sweep execution.
type Options struct {
	// Workers caps concurrent points; <=0 means GOMAXPROCS.
	Workers int
	// SweepSeed seeds the derived-seed stream for points whose Seed is
	// zero.
	SweepSeed int64
	// Sinks receive every record, in point order.
	Sinks []Sink
	// Resume, when non-nil, replays matching previously-recorded points
	// instead of executing them.
	Resume *Artifact
}

// Run executes the points on the worker pool and returns their records
// in point order. Point failures are reported inside the records (Err),
// not as a Run error; the returned error covers infrastructure failures
// (a sink write going bad).
func Run(points []Point, opts Options) ([]Record, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	for _, sink := range opts.Sinks {
		if s, ok := sink.(sweepStarter); ok && len(points) > 0 {
			s.StartSweep(points[0].Experiment, len(points))
		}
	}
	records := make([]Record, len(points))
	if len(points) == 0 {
		return records, nil
	}

	// The flush loop is the scheduler: it hands out one job per worker,
	// then one more per completed point — after flushing whatever that
	// completion made flushable — and none once a sink write failed. A
	// failed sink means the artifact is already broken, so executing the
	// remaining points would only burn time to produce records nobody can
	// persist; in-flight points drain normally. At most workers jobs are
	// ever outstanding, so the buffered sends never block.
	jobs := make(chan int, workers)
	done := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				records[idx] = execute(points[idx], idx, opts)
				done <- idx
			}
		}()
	}
	next := 0
	for ; next < workers; next++ {
		jobs <- next
	}

	// Flush completed records to the sinks in point order, so the
	// artifact layout never depends on scheduling. The first sink failure
	// stops both flushing and scheduling, and the returned error names
	// how many records made it out intact.
	var sinkErr error
	ready := make([]bool, len(points))
	flushed := 0
	for completed := 0; completed < next; completed++ {
		idx := <-done
		ready[idx] = true
		for sinkErr == nil && flushed < len(points) && ready[flushed] {
			if err := writeSinks(opts.Sinks, records[flushed]); err != nil {
				sinkErr = fmt.Errorf("runner: sink failed after %d records flushed: %w", flushed, err)
				break
			}
			flushed++
		}
		if sinkErr == nil && next < len(points) {
			jobs <- next
			next++
		}
	}
	close(jobs)
	wg.Wait()
	return records, sinkErr
}

func writeSinks(sinks []Sink, rec Record) error {
	for _, sink := range sinks {
		if err := sink.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func execute(p Point, idx int, opts Options) Record {
	seed := p.Seed
	if seed == 0 && !p.FixedSeed {
		seed = sim.DeriveSeed(opts.SweepSeed, pointLabel^uint64(idx)<<8)
	}
	rec := Record{
		Experiment: p.Experiment,
		Index:      idx,
		Epoch:      p.Epoch,
		Name:       p.Name,
		Seed:       seed,
		Params:     p.Params,
	}
	if opts.Resume != nil {
		if prev, ok := opts.Resume.Lookup(rec); ok {
			prev.Resumed = true
			return prev
		}
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	metrics, err := p.Run(seed)
	rec.WallClockMS = float64(time.Since(start)) / float64(time.Millisecond)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.TotalAlloc > before.TotalAlloc {
		rec.AllocBytes = after.TotalAlloc - before.TotalAlloc
	}
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Metrics = metrics
	return rec
}
