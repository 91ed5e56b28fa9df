package renaming

import (
	"fmt"
	"io"
	"math/rand"

	"renaming/internal/adversary"
	"renaming/internal/core"
	"renaming/internal/sim"
	"renaming/internal/trace"
)

// FaultKind selects the crash adversary strategy ("Eve").
type FaultKind int

const (
	// FaultNone runs failure-free.
	FaultNone FaultKind = iota + 1
	// FaultRandom crashes up to Budget nodes, each alive node failing
	// with probability Prob per round; MidSend adds partial sends.
	FaultRandom
	// FaultCommitteeKiller adaptively crashes every current committee
	// member (up to Budget) — the paper's worst-case strategy, which the
	// re-election probability doubling is designed to defeat.
	FaultCommitteeKiller
	// FaultBurst crashes the listed Nodes at the given Round.
	FaultBurst
)

// FaultSpec configures the crash adversary.
type FaultSpec struct {
	Kind    FaultKind
	Budget  int
	Prob    float64
	MidSend bool
	Round   int
	Nodes   []int
	// Custom, when non-nil, is used verbatim and takes precedence over
	// Kind. Stateful adversaries are good for one execution, so callers
	// running sweeps must construct a fresh value per run (the campaign
	// engine does this inside each point closure).
	Custom sim.CrashAdversary
}

func (spec FaultSpec) build(seed int64) sim.CrashAdversary {
	if spec.Custom != nil {
		return spec.Custom
	}
	switch spec.Kind {
	case FaultRandom:
		return &adversary.RandomCrashes{
			Budget: spec.Budget, Prob: spec.Prob,
			MidSendProb: midSendProb(spec.MidSend),
			Rand:        rand.New(rand.NewSource(sim.DeriveSeed(seed, 0x657665))), // "eve"
		}
	case FaultCommitteeKiller:
		return &adversary.CommitteeKiller{
			Budget: spec.Budget, MidSend: spec.MidSend,
			Rand: rand.New(rand.NewSource(sim.DeriveSeed(seed, 0x657665))),
		}
	case FaultBurst:
		return &adversary.BurstCrash{Round: spec.Round, Nodes: spec.Nodes}
	default:
		return sim.NoCrashes{}
	}
}

func midSendProb(midSend bool) float64 {
	if midSend {
		return 0.5
	}
	return 0
}

// CrashSpec configures one execution of the crash-resilient algorithm.
type CrashSpec struct {
	// N is the original namespace size; defaults to 16·n.
	N int
	// IDs are the original identities per link; generated with IDsEven
	// when nil.
	IDs []int
	// Seed drives all randomness; executions with equal specs are
	// bit-identical.
	Seed int64
	// CommitteeScale scales the paper's election constant 256 (see
	// core.CrashConfig).
	CommitteeScale float64
	// DisableReelectionDoubling is the A1 ablation (see core.CrashConfig).
	DisableReelectionDoubling bool
	// EarlyStop enables the adaptive-round early-stopping extension
	// (see core.CrashConfig).
	EarlyStop bool
	// Fault selects the adversary.
	Fault FaultSpec
	// Trace, when non-nil, receives a per-round traffic timeline after
	// the run.
	Trace io.Writer
	// Profile records the per-round traffic profile into
	// Result.RoundStats without a timeline writer (used by the
	// experiment runner's telemetry records).
	Profile bool
	// CongestLimit, when positive, flags honest messages above this many
	// bits in Result.OversizeMessages (CONGEST-model check).
	CongestLimit int
	// EngineWorkers, when positive, pins the round engine's worker count
	// (sim.WithEngineWorkers). Results are bit-identical at any setting;
	// the determinism test locks a golden fingerprint at 1 and 8.
	EngineWorkers int
	// EagerMulticast disables the shared ToSet status multicast
	// (sim.WithEagerMulticast), forcing explicit per-recipient messages.
	// Results are bit-identical either way — the representation property
	// test pins exactly that — so this is an ablation/testing knob.
	EagerMulticast bool
}

// RunCrash executes the crash-resilient renaming algorithm of Section 2
// over n nodes and returns the outcome with full communication metrics.
func RunCrash(n int, spec CrashSpec) (*Result, error) {
	return runCrash(n, spec, nil)
}

// runCrash is RunCrash over an optional engine pool: a nil pool builds a
// fresh network (the one-shot entry point above), a non-nil pool leases
// its persistent engine (Session callers). Results are bit-identical
// either way.
func runCrash(n int, spec CrashSpec, pool *sim.Pool) (*Result, error) {
	if spec.N == 0 {
		spec.N = 16 * n
	}
	if spec.IDs == nil {
		ids, err := GenerateIDs(n, spec.N, IDsEven, spec.Seed)
		if err != nil {
			return nil, err
		}
		spec.IDs = ids
	}
	if len(spec.IDs) != n {
		return nil, fmt.Errorf("renaming: %d ids for %d nodes", len(spec.IDs), n)
	}
	cfg := core.CrashConfig{
		N: spec.N, IDs: spec.IDs, Seed: spec.Seed,
		CommitteeScale:            spec.CommitteeScale,
		DisableReelectionDoubling: spec.DisableReelectionDoubling,
		EarlyStop:                 spec.EarlyStop,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	nodes := make([]*core.CrashNode, n)
	simNodes := make([]sim.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = core.NewCrashNode(cfg, i)
		simNodes[i] = nodes[i]
	}
	opts := []sim.Option{
		sim.WithCrashAdversary(spec.Fault.build(spec.Seed)),
		sim.WithPeek(func(i int) any { return nodes[i].Peek() }),
	}
	var recorder *trace.Recorder
	if spec.Trace != nil || spec.Profile {
		recorder = trace.NewRecorder()
		opts = append(opts, sim.WithRoundDigest(recorder.ObserveDigest))
	}
	if spec.CongestLimit > 0 {
		opts = append(opts, sim.WithCongestLimit(spec.CongestLimit))
	}
	if spec.EngineWorkers > 0 {
		opts = append(opts, sim.WithEngineWorkers(spec.EngineWorkers))
	}
	if spec.EagerMulticast {
		opts = append(opts, sim.WithEagerMulticast())
	}
	nw := pool.Acquire(simNodes, opts...)
	defer nw.Close()
	if err := nw.Run(cfg.TotalRounds() + 1); err != nil {
		return nil, fmt.Errorf("crash renaming: %w", err)
	}
	if spec.Trace != nil {
		if err := recorder.WriteTimeline(spec.Trace); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	res := &Result{
		NewIDByLink: make([]int, n),
		Crashes:     nw.Crashes(),
	}
	for i := 0; i < n; i++ {
		res.NewIDByLink[i] = -1
		if nodes[i].EverElected() {
			res.CommitteeSize++
		}
		if !nw.Alive(i) {
			continue
		}
		if id, ok := nodes[i].Output(); ok {
			res.NewIDByLink[i] = id
		}
	}
	fillMetrics(res, nw)
	if recorder != nil {
		res.RoundStats = roundStatsFrom(recorder)
	}
	res.fill(spec.IDs)
	res.AssumptionHolds = nw.AliveCount() > 0
	// A surviving undecided node is a correctness failure.
	for i := 0; i < n; i++ {
		if nw.Alive(i) && res.NewIDByLink[i] < 0 {
			res.Unique = false
		}
	}
	return res, nil
}

func fillMetrics(res *Result, nw *sim.Network) {
	m := nw.Metrics()
	res.Rounds = m.Rounds
	res.Messages = m.Messages
	res.Bits = m.Bits
	res.HonestMessages = m.HonestMessages
	res.HonestBits = m.HonestBits
	res.MaxMessageBits = m.MaxMessageBits
	res.MaxNodeSent = m.MaxNodeSent()
	res.MaxNodeReceived = m.MaxNodeReceived()
	res.OversizeMessages = m.OversizeMessages
	res.PerKind = make(map[string]int64, len(m.PerKind))
	for k, v := range m.PerKind {
		res.PerKind[k] = v
	}
}
