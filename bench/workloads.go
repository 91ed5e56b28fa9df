package main

import (
	"errors"
	"fmt"
	"runtime"

	"renaming"
	"renaming/internal/adversary"
	"renaming/internal/campaign"
	"renaming/internal/core"
	"renaming/internal/service"
	"renaming/internal/sim"
)

// workloadNames lists the workloads in the order a full run takes them.
var workloadNames = []string{"crash-quiet", "crash-killer", "byz-splitworld", "churn-fixedbatch", "campaign-crash"}

// size holds every workload dimension. fullSize is what BENCHMARK.json,
// golden.json and bench/README.md describe; tests run tinySize.
type size struct {
	crashN        int // crash-quiet and crash-killer network size
	byzN          int
	churnCapacity int
	churnBigN     int
	churnBatch    int // JoinMax = LeaveMax
	churnTrace    int // epochs per service trace
	campaignN     int
	campaignExecs int // executions per campaign, the campaign workload's op
	// ops is each workload's minimum op count. Every run completes at
	// least that many, whatever -seconds says, and the count metrics are
	// means over exactly those ops.
	ops map[string]int
	// parts is the number of processes an untraced run measures in, one
	// after another, each for its share of the time and of the minimum
	// op count. Now and then one process runs the same ops a third to a
	// half slower than its neighbours for its whole lifetime; with
	// several processes it holds only its share of the ops.
	parts  int
	setups int  // set-ups per part; setup_s is the median over all of them
	golden bool // check each set-up's counts against golden.json
}

var fullSize = size{
	crashN: 1024, byzN: 1024,
	churnCapacity: 65536, churnBigN: 1 << 22, churnBatch: 128, churnTrace: 2000,
	campaignN: 256, campaignExecs: 4,
	ops: map[string]int{
		"crash-quiet": 120, "crash-killer": 104, "byz-splitworld": 240,
		"churn-fixedbatch": 2000, "campaign-crash": 160,
	},
	parts:  8,
	setups: 2,
	golden: true,
}

func (sz size) minOps(w workload) int { return sz.ops[w.name()] }

// partOps is how many of the minimum ops each part runs.
func (sz size) partOps(w workload) int { return (sz.minOps(w) + sz.parts - 1) / sz.parts }

// tail is the highest of p90 and p99 that has at least ten samples
// beyond it at the workload's minimum op count.
func (sz size) tail(w workload) float64 {
	if sz.minOps(w) >= 1000 {
		return 0.99
	}
	return 0.9
}

// partStride separates the op indices of an untraced run's parts: part
// k runs ops k·partStride, k·partStride+1, …, so no two parts share an
// input and the first ops of every part are fixed by the seed alone.
const partStride = 1 << 20

// opRecord is one operation's measurement and verdict.
type opRecord struct {
	counts
	ms    float64 // wall time of the system call alone
	cpuMs float64 // process CPU time over the same span
	err   error   // failed correctness check
	// Layer counts, read off the result the system call returned.
	elected, crashes, iterations         int
	assumptionBroken                     bool
	joins, joined, failedJoins, recycled int
	aborted                              bool
	violations                           int
	execMs                               float64 // campaign: summed execution wall time
}

// workload is one seeded input family. Inputs derive from the workload
// seed alone; the system under test receives only the generated inputs.
type workload interface {
	name() string
	// setup builds fresh state for a loop, warm-up included, and returns
	// the warm-up's counts. The warm-up's seed is fixed, so its counts
	// are the same at every workload seed: golden.json pins them.
	setup() (counts, error)
	// run executes op i.
	run(i int) opRecord
	// trace replays op i through the layers' public functions, recording
	// spans into tr.
	trace(i int, tr *tracer) opRecord
	close()
}

func newWorkload(name string, seed int64, sz size) (workload, error) {
	switch name {
	case "crash-quiet":
		return &crashWorkload{label: name, seed: seed, n: sz.crashN}, nil
	case "crash-killer":
		return &crashWorkload{label: name, seed: seed, n: sz.crashN, killer: true}, nil
	case "byz-splitworld":
		return &byzWorkload{seed: seed, n: sz.byzN}, nil
	case "churn-fixedbatch":
		return &churnWorkload{seed: seed, capacity: sz.churnCapacity, bigN: sz.churnBigN, batch: sz.churnBatch, epochs: sz.churnTrace}, nil
	case "campaign-crash":
		return &campaignWorkload{seed: seed, n: sz.campaignN, execs: sz.campaignExecs}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// opSeed is op i's seed. The warm-up op has the same seed whatever the
// workload seed, so every run's set-up does the same work.
func opSeed(seed int64, i int) int64 {
	if i == warmOp {
		seed = 0
	}
	return sim.DeriveSeed(seed, uint64(i))
}

// warmOp is the op index set-up runs; no timed op has it.
const warmOp = -1

// eveLabel is the stream renaming.FaultSpec draws its crash adversary's
// randomness from; the traced run must draw the same stream.
const eveLabel = 0x657665

// crashWorkload is renaming.RunCrash at n = crashN, N = 16n, with no
// faults or with a mid-send committee killer of budget n/16.
type crashWorkload struct {
	label  string
	seed   int64
	n      int
	killer bool
}

func (w *crashWorkload) name() string { return w.label }
func (w *crashWorkload) close()       {}

func (w *crashWorkload) spec(seed int64) (renaming.CrashSpec, error) {
	ids, err := renaming.GenerateIDs(w.n, 16*w.n, renaming.IDsRandom, seed)
	if err != nil {
		return renaming.CrashSpec{}, err
	}
	spec := renaming.CrashSpec{N: 16 * w.n, IDs: ids, Seed: seed, CommitteeScale: 0.02}
	if w.killer {
		spec.Fault = renaming.FaultSpec{Kind: renaming.FaultCommitteeKiller, Budget: w.n / 16, MidSend: true}
	}
	return spec, nil
}

// adversary builds the crash adversary spec.Fault selects, as RunCrash
// does internally.
func (w *crashWorkload) adversary(seed int64) sim.CrashAdversary {
	if !w.killer {
		return sim.NoCrashes{}
	}
	return &adversary.CommitteeKiller{Budget: w.n / 16, MidSend: true, Rand: sim.NewRand(seed, eveLabel)}
}

func (w *crashWorkload) setup() (counts, error) { return warmUp(w) }

// warmUp runs the warm-up op of a workload whose set-up is one op.
func warmUp(w workload) (counts, error) {
	rec := w.run(warmOp)
	return rec.counts, rec.err
}

func (w *crashWorkload) run(i int) opRecord {
	seed := opSeed(w.seed, i)
	spec, err := w.spec(seed)
	if err != nil {
		return opRecord{err: err}
	}
	c := now()
	res, err := renaming.RunCrash(w.n, spec)
	rec := opRecord{err: err}
	rec.ms, rec.cpuMs = c.elapsed()
	if err == nil {
		rec.counts = counts{res.Messages, res.Bits, int64(res.Rounds)}
		rec.elected, rec.crashes = res.CommitteeSize, res.Crashes
		if ceiling := campaign.CrashRoundCeiling(w.n); !res.Unique {
			rec.err = errors.New("names not unique")
		} else if res.Rounds > ceiling {
			rec.err = fmt.Errorf("%d rounds exceed the ceiling %d", res.Rounds, ceiling)
		}
	}
	return rec
}

func (w *crashWorkload) trace(i int, tr *tracer) opRecord {
	tr.op = i
	seed := opSeed(w.seed, i)
	s := tr.begin(0, "renaming.ids")
	spec, err := w.spec(seed)
	tr.end(s)
	if err != nil {
		return opRecord{err: err}
	}
	c := now()
	root := tr.begin(0, "renaming.run_crash")
	var rec opRecord
	rec.counts, rec.err = tr.crash(root, nil, core.CrashConfig{N: spec.N, IDs: spec.IDs, Seed: seed, CommitteeScale: spec.CommitteeScale}, w.adversary(seed))
	tr.end(root)
	rec.ms, rec.cpuMs = c.elapsed()
	return rec
}

// byzWorkload is renaming.RunByzantine at n = byzN, N = 8n, with two
// split-world attackers at AdversaryLinks(n, 2).
type byzWorkload struct {
	seed int64
	n    int
}

func (w *byzWorkload) name() string { return "byz-splitworld" }
func (w *byzWorkload) close()       {}

func (w *byzWorkload) spec(seed int64) (renaming.ByzSpec, []int, error) {
	ids, err := renaming.GenerateIDs(w.n, 8*w.n, renaming.IDsRandom, seed)
	if err != nil {
		return renaming.ByzSpec{}, nil, err
	}
	links, err := renaming.AdversaryLinks(w.n, 2)
	if err != nil {
		return renaming.ByzSpec{}, nil, err
	}
	byz := make(map[int]renaming.Behavior, len(links))
	for _, l := range links {
		byz[l] = renaming.BehaviorSplitWorld
	}
	return renaming.ByzSpec{N: 8 * w.n, IDs: ids, Seed: seed, PoolProb: 16 / float64(w.n), Byzantine: byz}, links, nil
}

func (w *byzWorkload) setup() (counts, error) { return warmUp(w) }

func (w *byzWorkload) run(i int) opRecord {
	spec, _, err := w.spec(opSeed(w.seed, i))
	if err != nil {
		return opRecord{err: err}
	}
	c := now()
	res, err := renaming.RunByzantine(w.n, spec)
	rec := opRecord{err: err}
	rec.ms, rec.cpuMs = c.elapsed()
	if err == nil {
		rec.counts = counts{res.Messages, res.Bits, int64(res.Rounds)}
		rec.iterations, rec.assumptionBroken = res.Iterations, !res.AssumptionHolds
		if !res.Unique || !res.OrderPreserving {
			rec.err = fmt.Errorf("unique=%v order-preserving=%v", res.Unique, res.OrderPreserving)
		}
	}
	return rec
}

func (w *byzWorkload) trace(i int, tr *tracer) opRecord {
	tr.op = i
	seed := opSeed(w.seed, i)
	s := tr.begin(0, "renaming.ids")
	spec, links, err := w.spec(seed)
	tr.end(s)
	if err != nil {
		return opRecord{err: err}
	}
	c := now()
	root := tr.begin(0, "renaming.run_byzantine")
	var rec opRecord
	rec.counts, rec.err = tr.byz(root, core.ByzConfig{N: spec.N, IDs: spec.IDs, Seed: seed, PoolProb: spec.PoolProb}, links)
	tr.end(root)
	rec.ms, rec.cpuMs = c.elapsed()
	return rec
}

// churnWorkload is the long-lived service. One op is one epoch, a trace
// draw plus Service.RunEpoch, checked by a shadow ServiceOracle. Op i is
// epoch i mod epochs of trace i / epochs; each trace runs on a fresh
// service at its own seed, so the live population, and with it the
// epoch cost and the memory, does not depend on how many epochs a run
// gets through.
type churnWorkload struct {
	seed                  int64
	capacity, bigN, batch int
	epochs                int   // epochs per trace
	current               int   // the current trace; warmOp for set-up's
	traceSeed             int64 // the current trace's service seed
	requests              *service.TraceDriver
	svc                   *service.Service
	oracle                *campaign.ServiceOracle
	pool                  *sim.Pool // the traced run's one-shot replays
}

// warmEpochs start every trace, untimed.
const warmEpochs = 8

func (w *churnWorkload) name() string { return "churn-fixedbatch" }

func (w *churnWorkload) close() {
	w.svc.Close()
	w.pool.Close()
}

// setup starts the warm-up trace, whose seed is fixed.
func (w *churnWorkload) setup() (counts, error) { return w.start(warmOp) }

// start builds trace t: a fresh request stream, service and oracle,
// then the warm-up epochs, whose summed counts it returns.
func (w *churnWorkload) start(t int) (counts, error) {
	w.close()
	w.current, w.traceSeed = t, opSeed(w.seed, t)
	requests, err := service.NewTraceDriver(service.TraceSpec{
		Capacity: w.capacity, BigN: w.bigN, Seed: w.traceSeed, JoinMax: w.batch, LeaveMax: w.batch,
	})
	if err != nil {
		return counts{}, err
	}
	svc, err := service.New(service.Config{Capacity: w.capacity, BigN: w.bigN, Seed: w.traceSeed})
	if err != nil {
		return counts{}, err
	}
	w.requests, w.svc, w.pool = requests, svc, sim.NewPool()
	w.oracle = campaign.NewServiceOracle(w.capacity, service.CoreCrash)
	var sum counts
	for e := 0; e < warmEpochs; e++ {
		rec := w.epoch()
		if rec.err != nil {
			return counts{}, rec.err
		}
		sum.add(rec.counts)
	}
	return sum, nil
}

// next starts op i's trace unless it is already the current one.
func (w *churnWorkload) next(i int) error {
	if t := i / w.epochs; t != w.current {
		_, err := w.start(t)
		return err
	}
	return nil
}

func (w *churnWorkload) run(i int) opRecord {
	if err := w.next(i); err != nil {
		return opRecord{err: err}
	}
	return w.epoch()
}

// epoch runs and checks the next epoch of the current trace.
func (w *churnWorkload) epoch() opRecord {
	c := now()
	joins, leaves, err := w.requests.NextEpoch(w.svc.LiveClients())
	var res *service.EpochResult
	if err == nil {
		res, err = w.svc.RunEpoch(joins, leaves)
	}
	wall, cpu := c.elapsed()
	return w.check(res, err, wall, cpu)
}

// check folds an epoch into the shadow oracle and records its verdict.
func (w *churnWorkload) check(res *service.EpochResult, err error, wall, cpu float64) opRecord {
	rec := opRecord{ms: wall, cpuMs: cpu, err: err}
	if err != nil {
		return rec
	}
	rec.counts = counts{res.Messages, res.Bits, int64(res.Rounds)}
	rec.joins, rec.joined, rec.failedJoins, rec.recycled = res.JoinsRequested, res.Joined, res.FailedJoins, res.Recycled
	rec.aborted = res.Aborted
	viols := w.oracle.CheckEpoch(res)
	switch {
	case res.Aborted:
		rec.err = fmt.Errorf("epoch %d aborted: %s", res.Epoch, res.AbortReason)
	case len(viols) > 0:
		rec.err = fmt.Errorf("epoch %d: %d oracle violations, first %s: %s", res.Epoch, len(viols), viols[0].Invariant, viols[0].Detail)
	}
	return rec
}

func (w *churnWorkload) trace(i int, tr *tracer) opRecord {
	if err := w.next(i); err != nil {
		return opRecord{err: err}
	}
	tr.op = i
	c := now()
	root := tr.begin(0, "service.epoch")
	s := tr.begin(root, "service.live_clients")
	live := w.svc.LiveClients()
	tr.end(s)
	s = tr.begin(root, "service.next_epoch")
	joins, leaves, err := w.requests.NextEpoch(live)
	tr.end(s)
	var res *service.EpochResult
	if err == nil {
		s = tr.begin(root, "service.run_epoch")
		res, err = w.svc.RunEpoch(joins, leaves)
		tr.end(s)
	}
	tr.end(root)
	wall, cpu := c.elapsed()
	rec := w.check(res, err, wall, cpu)
	if rec.err != nil || len(joins) == 0 {
		return rec
	}
	// Replay the epoch's one-shot run on a pooled engine, as the service
	// does, so its layers get spans too; its counts must match the epoch's.
	ids := make([]int, len(joins))
	for k, j := range joins {
		ids[k] = j.ID
	}
	one := tr.begin(0, "service.oneshot")
	// CommitteeScale 0.02 is service.Config's default.
	got, err := tr.crash(one, w.pool, core.CrashConfig{N: w.bigN, IDs: ids, Seed: service.EpochSeed(w.traceSeed, res.Epoch), CommitteeScale: 0.02}, sim.NoCrashes{})
	tr.end(one)
	if err != nil {
		rec.err = fmt.Errorf("one-shot replay: %w", err)
	} else if got != rec.counts {
		rec.err = fmt.Errorf("one-shot replay counts %+v differ from the epoch's %+v", got, rec.counts)
	}
	return rec
}

// campaignWorkload is the adversary-search harness. One op is one
// campaign.Run of campaignExecs oracle-checked executions of the crash
// algorithm at N = campaignN, with the mixed generator and the default
// budget n/4.
type campaignWorkload struct {
	seed     int64
	n, execs int
}

func (w *campaignWorkload) name() string { return "campaign-crash" }
func (w *campaignWorkload) close()       {}

// workers is the runner's pool size: two, or fewer on a smaller machine.
func (w *campaignWorkload) workers() int { return min(2, runtime.NumCPU()) }

func (w *campaignWorkload) spec(i int) campaign.Spec {
	return campaign.Spec{
		Algo: campaign.AlgoCrash, N: w.n, Executions: w.execs,
		Seed:      opSeed(w.seed, i),
		Generator: campaign.GenMixed, Budget: campaign.BudgetDefault,
		Workers: w.workers(),
	}
}

func (w *campaignWorkload) setup() (counts, error) { return warmUp(w) }

func (w *campaignWorkload) run(i int) opRecord {
	c := now()
	out, err := campaign.Run(w.spec(i))
	rec := opRecord{err: err}
	rec.ms, rec.cpuMs = c.elapsed()
	if err != nil {
		return rec
	}
	for _, r := range out.Records {
		m := r.Metrics
		rec.add(counts{m.Messages, m.Bits, int64(m.Rounds)})
		rec.elected += m.CommitteeSize
		rec.crashes += m.Crashes
		rec.execMs += r.WallClockMS
	}
	if rec.violations = len(out.Violations); rec.violations > 0 {
		v := out.Violations[0]
		rec.err = fmt.Errorf("%d oracle violations, first in execution %d: %s: %s", rec.violations, v.Exec, v.Invariant, v.Detail)
	}
	return rec
}

// trace replays the campaign's executions one after another: strategy
// generation, identities and the one-shot run, as campaign.Run's workers
// do, without the oracle.
func (w *campaignWorkload) trace(i int, tr *tracer) opRecord {
	spec, err := w.spec(i).Normalized()
	if err != nil {
		return opRecord{err: err}
	}
	tr.op = i
	c := now()
	var rec opRecord
	for k := 0; k < spec.Executions && rec.err == nil; k++ {
		root := tr.begin(0, "campaign.exec")
		var got counts
		got, rec.err = w.traceExec(tr, root, spec, spec.ExecSeed(k))
		tr.end(root)
		rec.add(got)
	}
	rec.ms, rec.cpuMs = c.elapsed()
	return rec
}

func (w *campaignWorkload) traceExec(tr *tracer, root int, spec campaign.Spec, seed int64) (counts, error) {
	s := tr.begin(root, "campaign.generate")
	strat, err := campaign.Generate(campaign.GenSpec{
		Kind: spec.Generator, N: spec.N, Budget: spec.Budget, Rounds: campaign.CrashRoundCeiling(spec.N),
	}, seed)
	tr.end(s)
	if err != nil {
		return counts{}, err
	}
	s = tr.begin(root, "renaming.ids")
	ids, err := renaming.GenerateIDs(spec.N, spec.BigN, renaming.IDsEven, seed)
	tr.end(s)
	if err != nil {
		return counts{}, err
	}
	return tr.crash(root, nil, core.CrashConfig{N: spec.BigN, IDs: ids, Seed: seed, CommitteeScale: spec.CommitteeScale}, strat.Fault().Custom)
}
