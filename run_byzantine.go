package renaming

import (
	"fmt"
	"io"

	"renaming/internal/consensus"
	"renaming/internal/core"
	"renaming/internal/sim"
	"renaming/internal/trace"
)

// Behavior selects a Byzantine node's strategy ("Carlo" is static: the
// corrupted set and behaviours are fixed before activation).
type Behavior int

const (
	// BehaviorSilent plays dead.
	BehaviorSilent Behavior = iota + 1
	// BehaviorSplitWorld announces its identity to only half the
	// committee, diverging the identity lists.
	BehaviorSplitWorld
	// BehaviorEquivocate additionally equivocates inside every committee
	// subprotocol and fabricates early NEW messages.
	BehaviorEquivocate
	// BehaviorSpam floods everyone with garbage every round.
	BehaviorSpam
	// BehaviorMinoritySplit withholds its announcement from a sub-third
	// minority of the committee, driving the dirty-segment path.
	BehaviorMinoritySplit
	// BehaviorRushingEquivocate sees each round's honest messages before
	// sending (the rushing power of the synchronous model) and splits
	// its votes to maximize disagreement.
	BehaviorRushingEquivocate
)

func (b Behavior) core() core.ByzBehavior {
	switch b {
	case BehaviorSplitWorld:
		return core.BehaviorSplitWorld
	case BehaviorEquivocate:
		return core.BehaviorEquivocate
	case BehaviorSpam:
		return core.BehaviorSpam
	case BehaviorMinoritySplit:
		return core.BehaviorMinoritySplit
	case BehaviorRushingEquivocate:
		return core.BehaviorRushingEquivocate
	default:
		return core.BehaviorSilent
	}
}

// ByzSpec configures one execution of the Byzantine-resilient algorithm.
type ByzSpec struct {
	// N is the original namespace size; defaults to 8·n. The Byzantine
	// algorithm's divide-and-conquer works over [N], so N also bounds
	// the recursion depth log N.
	N int
	// IDs are the original identities per link; generated with IDsEven
	// when nil.
	IDs []int
	// Seed drives private randomness, the shared-randomness beacon, and
	// Byzantine behaviour.
	Seed int64
	// PoolProb overrides the paper's candidate-pool probability p₀
	// (see core.ByzConfig).
	PoolProb float64
	// Sortition switches committee election to public-hash sortition
	// (no shared randomness; see core.ElectionSortition for the weaker
	// adversary model this implies).
	Sortition bool
	// SplitAlways is the A2 ablation (see core.ByzConfig).
	SplitAlways bool
	// Byzantine maps link index → behaviour for corrupted nodes. Links
	// outside [0, n) and behaviours other than the Behavior constants
	// are errors.
	Byzantine map[int]Behavior
	// Fault optionally crashes honest nodes mid-execution (mixed
	// crash+Byzantine campaigns). A Byzantine adversary subsumes
	// crashes, so crashed honest committee members count toward the
	// Theorem 1.3 hypothesis bound alongside the corrupted ones. The
	// zero value keeps the network crash-free.
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
	// determinism tests use it to compare worker counts explicitly.
	EngineWorkers int
}

// RunByzantine executes the Byzantine-resilient renaming algorithm of
// Section 3 over n nodes and returns the outcome with full communication
// metrics. Correct nodes' results populate NewIDByLink; Byzantine links
// are marked -1. Running out of rounds is an error only while the
// committee assumption holds; outside it the Result comes back with its
// undecided survivors, so Unique is false.
func RunByzantine(n int, spec ByzSpec) (*Result, error) {
	return runByzantine(n, spec, nil)
}

// runByzantine is RunByzantine over an optional engine pool; see runCrash
// for the pooling contract.
func runByzantine(n int, spec ByzSpec, pool *sim.Pool) (*Result, error) {
	if err := spec.Fault.Validate(n); err != nil {
		return nil, err
	}
	if spec.N == 0 {
		spec.N = 8 * n
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
	cfg := core.ByzConfig{
		N: spec.N, IDs: spec.IDs, Seed: spec.Seed,
		PoolProb: spec.PoolProb, SplitAlways: spec.SplitAlways,
	}
	if spec.Sortition {
		cfg.Election = core.ElectionSortition
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(spec.Byzantine) > cfg.MaxByzantine() {
		return nil, fmt.Errorf("renaming: %d Byzantine nodes exceed the bound %d = (1/3−ε₀)·n",
			len(spec.Byzantine), cfg.MaxByzantine())
	}
	// Derive the candidate pool once; all n node constructors share it.
	cfg = cfg.Precompute()

	honest := make(map[int]*core.ByzNode, n)
	simNodes := make([]sim.Node, n)
	var byzLinks, rushLinks []int
	for i := 0; i < n; i++ {
		if behavior, bad := spec.Byzantine[i]; bad {
			if behavior < BehaviorSilent || behavior > BehaviorRushingEquivocate {
				return nil, fmt.Errorf("renaming: Byzantine link %d has undefined behavior %d", i, behavior)
			}
			simNodes[i] = core.NewByzAttacker(cfg, i, behavior.core())
			byzLinks = append(byzLinks, i)
			if behavior == BehaviorRushingEquivocate {
				rushLinks = append(rushLinks, i)
			}
			continue
		}
		node := core.NewByzNode(cfg, i)
		honest[i] = node
		simNodes[i] = node
	}
	if len(byzLinks) != len(spec.Byzantine) {
		return nil, fmt.Errorf("renaming: %d Byzantine links outside [0,%d)", len(spec.Byzantine)-len(byzLinks), n)
	}
	opts := []sim.Option{
		sim.WithByzantine(byzLinks),
		sim.WithCrashAdversary(spec.Fault.build(spec.Seed)),
	}
	if len(rushLinks) > 0 {
		opts = append(opts, sim.WithRushing(rushLinks))
	}
	if spec.EngineWorkers > 0 {
		opts = append(opts, sim.WithEngineWorkers(spec.EngineWorkers))
	}
	var recorder *trace.Recorder
	if spec.Trace != nil || spec.Profile {
		recorder = trace.NewRecorder()
		opts = append(opts, sim.WithRoundDigest(recorder.ObserveDigest))
	}
	if spec.CongestLimit > 0 {
		opts = append(opts, sim.WithCongestLimit(spec.CongestLimit))
	}
	nw := pool.Acquire(simNodes, opts...)
	defer nw.Close()
	runErr := nw.Run(byzRoundBudget(cfg, len(byzLinks)))

	res := &Result{
		NewIDByLink: make([]int, n),
		Byzantine:   len(byzLinks),
		Crashes:     nw.Crashes(),
	}
	if recorder != nil {
		profile := recorder.Summary()
		res.RoundStats = &profile
	}
	byzInCommittee := 0
	for i := 0; i < n; i++ {
		res.NewIDByLink[i] = -1
		node, ok := honest[i]
		if !ok {
			continue
		}
		if id, decided := node.Output(); decided {
			res.NewIDByLink[i] = id
		}
		if node.Iterations() > res.Iterations {
			res.Iterations = node.Iterations()
		}
		if res.CommitteeSize == 0 && node.CommitteeSize() > 0 {
			res.CommitteeSize = node.CommitteeSize()
			byzInCommittee = node.ByzantineInCommittee(func(link int) bool {
				// Crashed honest members count as adversarial: a
				// Byzantine adversary can always emulate a crash, so the
				// hypothesis bound must absorb both (conservative — a
				// crash is strictly weaker than full corruption).
				_, bad := spec.Byzantine[link]
				return bad || !nw.Alive(link)
			})
		}
	}
	res.AssumptionHolds = res.CommitteeSize > 0 && 3*byzInCommittee < res.CommitteeSize
	if runErr != nil && res.AssumptionHolds {
		// Inside the committee assumption Lemma 3.10 bounds the rounds,
		// so an exhausted budget is a fault. Outside it nothing is
		// promised: the run returns its Result, whose undecided
		// survivors make Unique false.
		return nil, fmt.Errorf("byzantine renaming: %w", runErr)
	}
	if spec.Trace != nil {
		if err := recorder.WriteTimeline(spec.Trace); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	fillMetrics(res, nw)
	res.fill(spec.IDs)
	for i := 0; i < n; i++ {
		// Crashed honest nodes are excused from deciding (same contract
		// as the crash algorithm); surviving honest nodes are not.
		if _, bad := spec.Byzantine[i]; !bad && nw.Alive(i) && res.NewIDByLink[i] < 0 {
			res.Unique = false
		}
	}
	return res, nil
}

// byzRoundBudget returns a generous round ceiling: the loop runs at most
// ~4·(f+1)·log N iterations (Lemma 3.10), each dominated by two phase-king
// executions over the committee.
func byzRoundBudget(cfg core.ByzConfig, byzCount int) int {
	n := len(cfg.IDs)
	perIter := consensus.ValidatorRounds + 2*consensus.RoundsFor(n) + consensus.ExchangeRounds + 2
	iters := 4*(byzCount+1)*(logCeil(cfg.N)+1) + 8
	if cfg.SplitAlways {
		// The ablation touches every bit: 2N−1 tree vertices.
		iters = 2*cfg.N + 8
	}
	return 3 + 2*perIter*iters
}

func logCeil(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
