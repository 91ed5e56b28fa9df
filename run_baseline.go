package renaming

import (
	"fmt"
	"math/rand"

	"renaming/internal/auth"
	"renaming/internal/baseline"
	"renaming/internal/sim"
)

// BaselineKind selects one of Table 1's comparator algorithms.
type BaselineKind int

const (
	// BaselineAllToAllCrash is crash-resilient all-to-all interval
	// halving (Okun–Barak–Gafni shape): O(log n) rounds, Θ(n² log n)
	// messages regardless of f.
	BaselineAllToAllCrash BaselineKind = iota + 1
	// BaselineCollectSort is the crash-free collect-and-sort floor:
	// 2 rounds, exactly n² messages.
	BaselineCollectSort
	// BaselineAllToAllByzantine is Byzantine all-to-all halving with
	// echo confirmation (f < n/3): Θ(n² log n) messages, Θ(n³·polylog)
	// bits via Ω(n)-bit echo messages.
	BaselineAllToAllByzantine
	// BaselineConsensusBroadcast is the classical renaming-from-
	// reliable-broadcast baseline (Dolev–Strong, t = ⌊(n−1)/3⌋): rounds
	// linear in the fault bound, Θ(n³) messages with chain-carrying
	// payloads. Byzantine links run equivocating senders (odd) or stay
	// silent (even).
	BaselineConsensusBroadcast
)

// BaselineSpec configures one baseline execution.
type BaselineSpec struct {
	Kind BaselineKind
	// N is the original namespace size; defaults to 16·n.
	N int
	// IDs are the original identities per link; generated with IDsEven
	// when nil.
	IDs []int
	// Seed drives the adversary.
	Seed int64
	// Fault configures the crash adversary (crash baselines only).
	Fault FaultSpec
	// Byzantine marks links run as attackers (Byzantine baseline only):
	// even links play silent, odd links play consistent liars.
	Byzantine []int
	// CongestLimit, when positive, flags honest messages above this many
	// bits in Result.OversizeMessages (CONGEST-model check).
	CongestLimit int
}

// RunBaseline executes one of the Table 1 comparator algorithms.
func RunBaseline(n int, spec BaselineSpec) (*Result, error) {
	if err := spec.Fault.Validate(n); err != nil {
		return nil, err
	}
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
	cfg := baseline.AllToAllConfig{N: spec.N, IDs: spec.IDs}

	switch spec.Kind {
	case BaselineConsensusBroadcast:
		dsCfg := baseline.ConsensusRenameConfig{N: spec.N, IDs: spec.IDs, Seed: spec.Seed}
		authority := auth.NewAuthority(spec.Seed, n)
		// One shared verification memo: a relayed chain reaching all n
		// recipients is verified once, not n times. Reset every round.
		memo := authority.NewMemo()
		byzSet := make(map[int]bool, len(spec.Byzantine))
		for _, link := range spec.Byzantine {
			byzSet[link] = true
		}
		factory := func(i int) outputNode {
			if !byzSet[i] {
				return baseline.NewConsensusRenameNode(dsCfg, i, authority, memo)
			}
			if i%2 == 0 {
				return baseline.SilentNode{}
			}
			return baseline.NewDSEquivocator(dsCfg, i, authority)
		}
		res, err := runBaselineNodes(n, spec, byzSet, factory, dsCfg.TotalRounds()+1,
			sim.WithRoundEnd(memo.Reset))
		if err != nil {
			return nil, err
		}
		res.Byzantine = len(spec.Byzantine)
		return res, nil
	case BaselineCollectSort:
		return runBaselineNodes(n, spec, nil, func(i int) outputNode {
			return baseline.NewCollectSortNode(cfg, i)
		}, 3)
	case BaselineAllToAllByzantine:
		byzSet := make(map[int]bool, len(spec.Byzantine))
		for _, link := range spec.Byzantine {
			byzSet[link] = true
		}
		factory := func(i int) outputNode {
			if !byzSet[i] {
				return baseline.NewAllToAllByzNode(cfg, i)
			}
			if i%2 == 0 {
				return baseline.SilentNode{}
			}
			rng := rand.New(rand.NewSource(sim.DeriveSeed(spec.Seed, 0x6c696172<<8|uint64(i))))
			return baseline.NewLiarNode(cfg, i, rng)
		}
		res, err := runBaselineNodes(n, spec, byzSet, factory, baseline.TotalRoundsByz(cfg)+1)
		if err != nil {
			return nil, err
		}
		res.Byzantine = len(spec.Byzantine)
		return res, nil
	default:
		return runBaselineNodes(n, spec, nil, func(i int) outputNode {
			return baseline.NewAllToAllCrashNode(cfg, i)
		}, cfg.TotalRounds()+1)
	}
}

// outputNode is the common surface of all baseline node types.
type outputNode interface {
	sim.Node
	Output() (int, bool)
}

func runBaselineNodes(n int, spec BaselineSpec, byzSet map[int]bool, factory func(int) outputNode, maxRounds int, extra ...sim.Option) (*Result, error) {
	nodes := make([]outputNode, n)
	simNodes := make([]sim.Node, n)
	var byzLinks []int
	for i := 0; i < n; i++ {
		nodes[i] = factory(i)
		simNodes[i] = nodes[i]
		if byzSet[i] {
			byzLinks = append(byzLinks, i)
		}
	}
	opts := []sim.Option{
		sim.WithCrashAdversary(spec.Fault.build(spec.Seed)),
		sim.WithByzantine(byzLinks),
	}
	if spec.CongestLimit > 0 {
		opts = append(opts, sim.WithCongestLimit(spec.CongestLimit))
	}
	opts = append(opts, extra...)
	nw := sim.NewNetwork(simNodes, opts...)
	defer nw.Close()
	if err := nw.Run(maxRounds); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	res := &Result{NewIDByLink: make([]int, n), Crashes: nw.Crashes()}
	for i := 0; i < n; i++ {
		res.NewIDByLink[i] = -1
		if !nw.Alive(i) || byzSet[i] {
			continue
		}
		if id, ok := nodes[i].Output(); ok {
			res.NewIDByLink[i] = id
		}
	}
	fillMetrics(res, nw)
	res.fill(spec.IDs)
	res.AssumptionHolds = true
	for i := 0; i < n; i++ {
		if nw.Alive(i) && !byzSet[i] && res.NewIDByLink[i] < 0 {
			res.Unique = false
		}
	}
	return res, nil
}
