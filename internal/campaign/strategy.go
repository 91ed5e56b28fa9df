// Package campaign is the randomized adversary-campaign engine: it
// generates seeded adversary strategies (crash schedules, Byzantine
// placements and behaviours), fans thousands of executions across the
// internal/runner worker pool, checks every execution against an
// invariant oracle derived from the paper's theorems, reduces campaigns
// to tail statistics (max/p50/p95/p99 with bootstrap CIs) compared
// against the theorem envelopes, and shrinks violating strategies to
// minimal replayable reproducers.
//
// Where the experiment suite (internal/experiments) measures one
// hand-written adversary per sweep point, a campaign samples the
// *distribution* of adversary strategies whose tail the paper's
// with-high-probability claims are actually about. See docs/CAMPAIGNS.md.
package campaign

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"renaming"
	"renaming/internal/adversary"
	"renaming/internal/sim"
)

// stratLabel is the DeriveSeed stream label for strategy generation
// ("strt").
const stratLabel uint64 = 0x73747274

// GeneratorKind names a strategy-generation distribution.
type GeneratorKind string

const (
	// GenEarlyBurst packs all crashes into the first few rounds — the
	// correlated-failure profile (rack loss at startup).
	GenEarlyBurst GeneratorKind = "early-burst"
	// GenTrickle spreads crashes uniformly over the whole execution —
	// one or a few per phase, the paper's per-phase attrition profile.
	GenTrickle GeneratorKind = "trickle"
	// GenTargeted aims every crash at a current committee member
	// (resolved at execution time via the Peek hook) — the schedulable
	// form of the committee-killer adaptivity.
	GenTargeted GeneratorKind = "targeted"
	// GenMixed draws each crash independently from the three profiles
	// above — the broadest crash-strategy distribution.
	GenMixed GeneratorKind = "mixed"

	// GenByzUniform corrupts a random subset with behaviours drawn
	// uniformly from the full zoo (silence, equivocation, value-skew,
	// spam).
	GenByzUniform GeneratorKind = "byz-uniform"
	// GenByzSkew favours the value-skew behaviours (split-world,
	// minority-split) that attack the identity-agreement path.
	GenByzSkew GeneratorKind = "byz-skew"
	// GenByzSilent corrupts nodes into pure silence — the crash-like
	// Byzantine floor.
	GenByzSilent GeneratorKind = "byz-silent"
	// GenMixedFault splits the budget between Byzantine corruptions and
	// crash events in one execution — the fault model the Section 3
	// assumptions actually face (a Byzantine adversary subsumes crashes,
	// so both must count toward its hypothesis bound).
	GenMixedFault GeneratorKind = "mixed-fault"

	// GenChurn spreads crash events across the *epochs* of a long-lived
	// service execution (AlgoService): each event names an epoch, a
	// round within that epoch's one-shot run, and a link within the
	// epoch's join batch — so one strategy attacks the service across
	// epoch boundaries, which no single one-shot schedule can express.
	GenChurn GeneratorKind = "churn"
)

// generators lists the generator kinds whose strategies algo executes:
// crash schedules for crash and baseline-a2a, corruption sets (the
// mixed crash+Byzantine family included) for byzantine, epoch-keyed
// churn for service. It is nil for an unknown algo.
func generators(algo Algo) []GeneratorKind {
	switch algo {
	case AlgoCrash, AlgoBaselineA2A:
		return []GeneratorKind{GenEarlyBurst, GenTrickle, GenTargeted, GenMixed}
	case AlgoByzantine:
		return []GeneratorKind{GenByzUniform, GenByzSkew, GenByzSilent, GenMixedFault}
	case AlgoService:
		return []GeneratorKind{GenChurn}
	}
	return nil
}

// CheckGenerator returns an error unless algo is a known algo and gen
// draws strategies it can execute.
func CheckGenerator(algo Algo, gen GeneratorKind) error {
	kinds := generators(algo)
	if kinds == nil {
		return fmt.Errorf("campaign: unknown algo %q (want %s, %s, %s or %s)", algo, AlgoCrash, AlgoByzantine, AlgoBaselineA2A, AlgoService)
	}
	if !slices.Contains(kinds, gen) {
		return fmt.Errorf("campaign: generator %q does not match algo %q", gen, algo)
	}
	return nil
}

// IsByz reports whether the kind generates Byzantine strategies.
func (g GeneratorKind) IsByz() bool {
	switch g {
	case GenByzUniform, GenByzSkew, GenByzSilent, GenMixedFault:
		return true
	}
	return false
}

// ChurnEvent is one planned crash inside a long-lived service
// execution: the embedded adversary.Event (round, node, mid-send
// filter, salt) scoped to one epoch's one-shot run. Node addresses a
// link of that epoch's join batch; events whose node lands outside the
// batch are skipped at execution time, same as events aimed at dead
// nodes.
type ChurnEvent struct {
	Epoch int `json:"epoch"`
	adversary.Event
}

// ByzAssignment corrupts one link with one behaviour (by name, so the
// artifact is self-describing JSON).
type ByzAssignment struct {
	Link     int    `json:"link"`
	Behavior string `json:"behavior"`
}

// Strategy is one concrete, replayable adversary strategy: either a
// crash schedule or a Byzantine placement/behaviour assignment. It is
// plain data — serializable into artifacts, shrinkable, and replayable
// bit-identically.
type Strategy struct {
	// Generator records which distribution produced the strategy.
	Generator GeneratorKind `json:"generator"`
	// Schedule is the crash-event list (crash strategies).
	Schedule []adversary.Event `json:"schedule,omitempty"`
	// ScheduleSeed drives the schedule's mid-send delivery filters.
	ScheduleSeed int64 `json:"scheduleSeed,omitempty"`
	// Byzantine is the corruption assignment (Byzantine strategies).
	Byzantine []ByzAssignment `json:"byzantine,omitempty"`
	// Churn is the epoch-keyed crash-event list (service strategies);
	// ScheduleSeed drives its mid-send filters too.
	Churn []ChurnEvent `json:"churn,omitempty"`
}

// Fault wraps the crash schedule as a renaming.FaultSpec carrying a
// fresh adversary instance (stateful — one execution only).
func (s Strategy) Fault() renaming.FaultSpec {
	return renaming.FaultSpec{
		Kind:   renaming.FaultNone,
		Custom: &adversary.EventSchedule{Events: s.Schedule, Seed: s.ScheduleSeed},
	}
}

// ChurnFault returns the per-epoch fault hook a service Config takes:
// each call builds a fresh EventSchedule (stateful — one execution
// only) over the strategy's events for that epoch. Salted filters make
// every event's mid-send behaviour independent of its position, so the
// same ChurnEvent filters identically whichever epoch subset it lands
// in.
func (s Strategy) ChurnFault() func(epoch, batch int) renaming.FaultSpec {
	return func(epoch, batch int) renaming.FaultSpec {
		var events []adversary.Event
		for _, ev := range s.Churn {
			if ev.Epoch == epoch {
				events = append(events, ev.Event)
			}
		}
		if len(events) == 0 {
			return renaming.FaultSpec{}
		}
		return renaming.FaultSpec{
			Kind:   renaming.FaultNone,
			Custom: &adversary.EventSchedule{Events: events, Seed: s.ScheduleSeed},
		}
	}
}

// ByzMap converts the assignment list into the map RunByzantine takes.
func (s Strategy) ByzMap() (map[int]renaming.Behavior, error) {
	set := make(map[int]renaming.Behavior, len(s.Byzantine))
	for _, a := range s.Byzantine {
		b, err := ParseBehavior(a.Behavior)
		if err != nil {
			return nil, err
		}
		set[a.Link] = b
	}
	return set, nil
}

// behaviorNames maps behaviour names to renaming behaviours; the names
// match cmd/renamesim's -behavior flag.
var behaviorNames = map[string]renaming.Behavior{
	"silent":        renaming.BehaviorSilent,
	"splitworld":    renaming.BehaviorSplitWorld,
	"minoritysplit": renaming.BehaviorMinoritySplit,
	"equivocate":    renaming.BehaviorEquivocate,
	"rushing":       renaming.BehaviorRushingEquivocate,
	"spam":          renaming.BehaviorSpam,
}

// ParseBehavior resolves a behaviour name to its renaming constant.
func ParseBehavior(name string) (renaming.Behavior, error) {
	b, ok := behaviorNames[name]
	if !ok {
		return 0, fmt.Errorf("campaign: unknown behavior %q", name)
	}
	return b, nil
}

// GenSpec parameterizes strategy generation.
type GenSpec struct {
	// Kind selects the distribution.
	Kind GeneratorKind
	// N is the network size.
	N int
	// Budget caps the adversary: max crashes (crash kinds) or max
	// Byzantine nodes (byz kinds). The actual count is drawn from
	// [0, Budget] (crash) or [1, Budget] (byz) per strategy.
	Budget int
	// Rounds is the round span crash events are placed in (the
	// algorithm's round ceiling; for churn strategies, the per-epoch
	// one-shot ceiling).
	Rounds int
	// Epochs is the epoch span churn events are placed in (GenChurn).
	Epochs int
	// BatchMax is the largest join batch a churn trace draws; churn
	// event nodes are placed in [0, BatchMax) (GenChurn).
	BatchMax int
}

// Generate draws one strategy from the distribution, deterministically
// in the seed. Distinct seeds give independent strategies; the same
// seed always reproduces the same strategy.
func Generate(spec GenSpec, seed int64) (Strategy, error) {
	if spec.N <= 0 {
		return Strategy{}, fmt.Errorf("campaign: generate needs n > 0, got %d", spec.N)
	}
	if spec.Budget < 0 || spec.Budget >= spec.N {
		return Strategy{}, fmt.Errorf("campaign: budget %d out of range [0, n) for n=%d", spec.Budget, spec.N)
	}
	rng := sim.NewRand(seed, stratLabel)
	if spec.Kind == GenMixedFault {
		return generateMixedFault(spec, seed, rng)
	}
	if spec.Kind == GenChurn {
		return generateChurn(spec, seed, rng)
	}
	if spec.Kind.IsByz() {
		return generateByz(spec, rng)
	}
	return generateCrash(spec, seed, rng)
}

// nonzeroSalt draws an event's stable filter identity. Zero stays out of
// the salt space — the artifact schema omits a zero salt — so redraw on
// the (2⁻⁶⁴) collision.
func nonzeroSalt(rng *rand.Rand) uint64 {
	for {
		if s := rng.Uint64(); s != 0 {
			return s
		}
	}
}

func generateCrash(spec GenSpec, seed int64, rng *rand.Rand) (Strategy, error) {
	rounds := spec.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	count := 0
	if spec.Budget > 0 {
		count = rng.Intn(spec.Budget + 1)
	}
	strat := Strategy{Generator: spec.Kind, ScheduleSeed: sim.DeriveSeed(seed, stratLabel<<1)}
	nodes := rng.Perm(spec.N)[:min(count, spec.N)]
	for i := 0; i < count; i++ {
		kind := spec.Kind
		if kind == GenMixed {
			kind = []GeneratorKind{GenEarlyBurst, GenTrickle, GenTargeted}[rng.Intn(3)]
		}
		ev := adversary.Event{Node: nodes[i], MidSend: rng.Intn(2) == 0, Salt: nonzeroSalt(rng)}
		switch kind {
		case GenEarlyBurst:
			ev.Round = rng.Intn(min(4, rounds))
		case GenTrickle:
			ev.Round = rng.Intn(rounds)
		case GenTargeted:
			ev.Round = rng.Intn(rounds)
			ev.TargetCommittee = true
		default:
			return Strategy{}, fmt.Errorf("campaign: unknown crash generator %q", spec.Kind)
		}
		strat.Schedule = append(strat.Schedule, ev)
	}
	// Sort by round (stable on the drawn order) so schedules read
	// chronologically in artifacts; execution order is round-driven
	// either way.
	sort.SliceStable(strat.Schedule, func(a, b int) bool {
		return strat.Schedule[a].Round < strat.Schedule[b].Round
	})
	return strat, nil
}

// generateChurn draws an epoch-keyed crash-event list for a long-lived
// service execution: up to Budget events, each landing in a uniform
// epoch, a uniform round of that epoch's one-shot run, and a uniform
// link of the (worst-case) join batch. A quarter of the events target
// the epoch's current committee instead of a fixed link — the
// cross-epoch form of the committee-killer adaptivity. Events whose
// link exceeds the epoch's actual batch simply never fire, matching
// the EventSchedule contract for dead targets.
func generateChurn(spec GenSpec, seed int64, rng *rand.Rand) (Strategy, error) {
	epochs := max(1, spec.Epochs)
	rounds := max(1, spec.Rounds)
	batch := max(1, spec.BatchMax)
	strat := Strategy{Generator: GenChurn, ScheduleSeed: sim.DeriveSeed(seed, stratLabel<<1)}
	count := 0
	if spec.Budget > 0 {
		count = rng.Intn(spec.Budget + 1)
	}
	for i := 0; i < count; i++ {
		ev := ChurnEvent{
			Epoch: rng.Intn(epochs),
			Event: adversary.Event{
				Round:   rng.Intn(rounds),
				Node:    rng.Intn(batch),
				MidSend: rng.Intn(2) == 0,
				Salt:    nonzeroSalt(rng),
			},
		}
		if rng.Intn(4) == 0 {
			ev.TargetCommittee = true
		}
		strat.Churn = append(strat.Churn, ev)
	}
	sort.SliceStable(strat.Churn, func(a, b int) bool {
		if strat.Churn[a].Epoch != strat.Churn[b].Epoch {
			return strat.Churn[a].Epoch < strat.Churn[b].Epoch
		}
		return strat.Churn[a].Round < strat.Churn[b].Round
	})
	return strat, nil
}

// byzSkewWeights favour the value-skew behaviours; byzUniformPool is
// the full zoo. BehaviorRushingEquivocate is excluded from generation:
// rushing changes the engine's scheduling mode, which would make
// campaign wall-clock bimodal for reasons unrelated to the strategy
// distribution (it remains reachable via cmd/renamesim -behavior).
var (
	byzUniformPool = []string{"silent", "splitworld", "minoritysplit", "equivocate", "spam"}
	byzSkewPool    = []string{"splitworld", "splitworld", "minoritysplit", "minoritysplit", "equivocate"}
)

func generateByz(spec GenSpec, rng *rand.Rand) (Strategy, error) {
	if spec.Budget == 0 {
		return Strategy{Generator: spec.Kind}, nil
	}
	count := 1 + rng.Intn(spec.Budget)
	links := rng.Perm(spec.N)[:count]
	sort.Ints(links)
	strat := Strategy{Generator: spec.Kind}
	for _, link := range links {
		var behavior string
		switch spec.Kind {
		case GenByzUniform:
			behavior = byzUniformPool[rng.Intn(len(byzUniformPool))]
		case GenByzSkew:
			behavior = byzSkewPool[rng.Intn(len(byzSkewPool))]
		case GenByzSilent:
			behavior = "silent"
		default:
			return Strategy{}, fmt.Errorf("campaign: unknown byz generator %q", spec.Kind)
		}
		strat.Byzantine = append(strat.Byzantine, ByzAssignment{Link: link, Behavior: behavior})
	}
	return strat, nil
}

// generateMixedFault splits the Budget between Byzantine corruptions
// and crash events on disjoint links: at least one corruption (else the
// strategy degenerates to a crash campaign under the wrong algo), the
// rest of the drawn total becomes mid-execution crashes of honest
// nodes. Targeted-committee events are excluded — the Byzantine
// engine's committees are resolved by the candidate-pool election, not
// the crash Peek hook.
func generateMixedFault(spec GenSpec, seed int64, rng *rand.Rand) (Strategy, error) {
	strat := Strategy{Generator: GenMixedFault, ScheduleSeed: sim.DeriveSeed(seed, stratLabel<<1)}
	if spec.Budget == 0 {
		return strat, nil
	}
	rounds := spec.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	total := 1 + rng.Intn(spec.Budget)
	byzCount := 1
	if total > 1 {
		byzCount += rng.Intn(total)
	}
	links := rng.Perm(spec.N)[:total]
	byzLinks := append([]int(nil), links[:byzCount]...)
	sort.Ints(byzLinks)
	for _, link := range byzLinks {
		strat.Byzantine = append(strat.Byzantine, ByzAssignment{
			Link: link, Behavior: byzUniformPool[rng.Intn(len(byzUniformPool))],
		})
	}
	for _, node := range links[byzCount:] {
		strat.Schedule = append(strat.Schedule, adversary.Event{
			Round:   rng.Intn(rounds),
			Node:    node,
			MidSend: rng.Intn(2) == 0,
			Salt:    nonzeroSalt(rng),
		})
	}
	sort.SliceStable(strat.Schedule, func(a, b int) bool {
		return strat.Schedule[a].Round < strat.Schedule[b].Round
	})
	return strat, nil
}
