package campaign

import (
	"fmt"
	"math"
	"sort"

	"renaming/internal/adversary"
	"renaming/internal/runner"
	"renaming/internal/sim"
)

// DeriveSeed stream labels for the search: per-generation planning
// ("spln"), fresh strategy draws ("sfrs").
const (
	searchPlanLabel uint64 = 0x73706c6e
	searchGenLabel  uint64 = 0x73667273
)

// Objective names the search fitness — what makes an adversary strategy
// "good" from the adversary's point of view.
type Objective string

const (
	// ObjectiveRounds maximizes the execution's round count: the search
	// hunts for killer schedules that push the algorithm toward its
	// deterministic round ceiling.
	ObjectiveRounds Objective = "rounds"
	// ObjectiveEnvelope maximizes the per-execution honest-message
	// envelope ratio honestMessages / (EnvelopeConstant·(f+log n)·n·log n):
	// the search hunts for strategies that stress the Theorem 1.2
	// message envelope.
	ObjectiveEnvelope Objective = "envelope"
)

// SearchSpec configures one fitness-guided adversary search. Where a
// campaign samples strategies independently, a search spends the same
// execution budget adaptively: a UCB1 bandit allocates fresh draws
// across generator families, elite strategies are greedily mutated
// (move/add/drop/retarget/toggle-midsend), and every few generations a
// coordinate-descent pass locally optimizes the best schedule's crash
// rounds. Execution i evaluates at Spec.ExecSeed(i) — the exact seed
// stream a sampling campaign with the same master seed consumes — so a
// search/sampling comparison differs only in which strategies the
// budget is spent on, and the search stays bit-identical at any worker
// count (seeds are fixed by global execution index before scheduling).
type SearchSpec struct {
	// Base is the campaign configuration every candidate is evaluated
	// under (algo, sizes, fault budget, oracle, workers, sinks). The algo
	// must be crash, baseline-a2a or byzantine: mutation and descent
	// edit one-shot strategies, so AlgoService is rejected.
	// Base.Executions and Base.Generator are ignored: BudgetExecs bounds
	// the search and the bandit spans all families for the algo.
	Base Spec
	// Objective selects the fitness; default ObjectiveRounds.
	Objective Objective
	// BudgetExecs is the total number of executions the search may
	// spend — the resource a search/sampling comparison equalizes.
	BudgetExecs int
	// PopSize is the number of candidates evaluated per generation
	// (default 16).
	PopSize int
	// EliteSize is the elite pool carried between generations as
	// mutation parents (default 4).
	EliteSize int
}

// Candidate is one evaluated strategy.
type Candidate struct {
	// Strategy is the replayable strategy (shrinkable via the shared
	// ddmin path when it violates an invariant).
	Strategy Strategy `json:"strategy"`
	// Fitness is the objective value at the search's evaluation seed.
	Fitness float64 `json:"fitness"`
	// Metrics is the evaluation's full telemetry.
	Metrics runner.Metrics `json:"metrics"`
	// Gen and Exec locate the evaluation (generation index, global
	// execution index).
	Gen  int `json:"gen"`
	Exec int `json:"exec"`
	// Op records how the candidate was produced: "fresh", "mutate", or
	// "descent".
	Op string `json:"op"`
}

// GenerationStat summarizes one generation.
type GenerationStat struct {
	Gen   int     `json:"gen"`
	Kind  string  `json:"kind"` // "explore" | "descent"
	Execs int     `json:"execs"`
	Best  float64 `json:"best"`
	Mean  float64 `json:"mean"`
}

// ArmStat reports one generator family's bandit allocation.
type ArmStat struct {
	Kind  GeneratorKind `json:"kind"`
	Pulls int           `json:"pulls"`
	Mean  float64       `json:"mean"`
}

// SearchOutcome is a completed search.
type SearchOutcome struct {
	// Base is the normalized evaluation spec (Executions pinned to 1;
	// pass it to Shrink for any of the violations below).
	Base Spec
	// Objective is the resolved objective.
	Objective Objective
	// Best is the highest-fitness candidate (earliest on ties).
	Best Candidate
	// ExecsUsed is the number of executions actually spent (≤ budget).
	ExecsUsed int
	// Generations summarizes the trajectory, in order.
	Generations []GenerationStat
	// Arms is the final bandit state per generator family.
	Arms []ArmStat
	// Violations are oracle breaches found along the way, in evaluation
	// order — a search doubles as a guided bug hunt.
	Violations []Violation
}

// descentEvery is the cadence of coordinate-descent generations: every
// fourth generation refines the incumbent instead of exploring.
const descentEvery = 4

// planned is one not-yet-evaluated candidate.
type planned struct {
	strat Strategy
	op    string
}

// Search runs the fitness-guided adversary search. Determinism
// contract: the outcome — and any JSONL telemetry written through
// Base.Sinks (with volatile fields omitted) — is bit-identical at any
// Base.Workers setting, because planning and reduction are sequential,
// evaluation fans out through the runner's in-order pool at one fixed
// seed, and the bandit/elite updates consume records in point order.
func Search(spec SearchSpec) (*SearchOutcome, error) {
	base := spec.Base
	base.Executions = 1
	base.Generator = ""
	base, err := base.withDefaults()
	if err != nil {
		return nil, err
	}
	if base.Algo == AlgoService {
		// The bandit arms, mutations and descent moves edit one-shot
		// crash schedules and corruption sets, not epoch-keyed churn.
		return nil, fmt.Errorf("campaign: search does not support algo %q", base.Algo)
	}
	if spec.BudgetExecs <= 0 {
		return nil, fmt.Errorf("campaign: search needs a positive execution budget, got %d", spec.BudgetExecs)
	}
	if spec.PopSize <= 0 {
		spec.PopSize = 16
	}
	if spec.EliteSize <= 0 {
		spec.EliteSize = 4
	}
	switch spec.Objective {
	case "":
		spec.Objective = ObjectiveRounds
	case ObjectiveRounds, ObjectiveEnvelope:
	default:
		return nil, fmt.Errorf("campaign: unknown objective %q", spec.Objective)
	}

	arms := generators(base.Algo)
	armIndex := make(map[GeneratorKind]int, len(arms))
	for i, kind := range arms {
		armIndex[kind] = i
	}
	bandit := newUCB1(len(arms))

	out := &SearchOutcome{Base: base, Objective: spec.Objective}
	out.Best.Fitness = math.Inf(-1)
	var elites []Candidate
	fresh := 0

	for gen := 0; out.ExecsUsed < spec.BudgetExecs; gen++ {
		want := spec.PopSize
		if left := spec.BudgetExecs - out.ExecsUsed; want > left {
			want = left
		}
		rng := sim.NewRand(base.Seed, searchPlanLabel^uint64(gen)<<8)

		kind := "explore"
		var plan []planned
		if gen%descentEvery == descentEvery-1 && !math.IsInf(out.Best.Fitness, -1) {
			kind = "descent"
			plan = planDescent(out.Best.Strategy, base.genSpec(), want)
			if len(plan) == 0 {
				// No crash coordinate to descend on (e.g. the incumbent
				// is the empty schedule): exploit instead — re-evaluate
				// the incumbent at this generation's fresh execution
				// seeds, sharpening the max over its seed distribution.
				for len(plan) < want {
					plan = append(plan, planned{strat: out.Best.Strategy, op: "exploit"})
				}
			}
		}
		for len(plan) < want {
			if len(elites) > 0 && rng.Intn(2) == 0 {
				parent := elites[rng.Intn(len(elites))]
				gs := base.genSpec()
				gs.Kind = parent.Strategy.Generator
				plan = append(plan, planned{
					strat: mutateStrategy(parent.Strategy, gs, rng),
					op:    "mutate",
				})
				continue
			}
			// Fresh draws for the remaining slots come as one bandit
			// batch so the family allocation is planned against the
			// rewards known so far.
			for _, arm := range bandit.PickBatch(want - len(plan)) {
				gs := base.genSpec()
				gs.Kind = arms[arm]
				seed := sim.DeriveSeed(base.Seed, searchGenLabel^uint64(fresh)<<8)
				fresh++
				strat, err := Generate(gs, seed)
				if err != nil {
					return nil, err
				}
				plan = append(plan, planned{strat: strat, op: "fresh"})
			}
		}

		cands, viols, err := evaluate(base, spec.Objective, plan, gen, out.ExecsUsed)
		if err != nil {
			return nil, err
		}
		out.Violations = append(out.Violations, viols...)

		// Sequential reduction in evaluation order: bandit rewards,
		// elite pool, incumbent. Ties keep the earliest candidate.
		stat := GenerationStat{Gen: gen, Kind: kind, Execs: len(cands), Best: math.Inf(-1)}
		for _, c := range cands {
			if arm, ok := armIndex[c.Strategy.Generator]; ok {
				bandit.Reward(arm, normalizeReward(base, spec.Objective, c.Fitness))
			}
			if c.Fitness > out.Best.Fitness {
				out.Best = c
			}
			if c.Fitness > stat.Best {
				stat.Best = c.Fitness
			}
			stat.Mean += c.Fitness / float64(len(cands))
		}
		elites = topElites(elites, cands, spec.EliteSize)
		out.Generations = append(out.Generations, stat)
		out.ExecsUsed += len(cands)
	}

	for i, kindArm := range arms {
		out.Arms = append(out.Arms, ArmStat{Kind: kindArm, Pulls: bandit.pulls[i], Mean: bandit.Mean(i)})
	}
	return out, nil
}

// planDescent emits coordinate-descent neighbours of the incumbent:
// each crash event's round shifted by ±1 (clamped to the round span),
// one coordinate at a time, truncated to the generation's budget.
func planDescent(best Strategy, gs GenSpec, want int) []planned {
	rounds := gs.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	var plan []planned
	for i := range best.Schedule {
		for _, delta := range []int{-1, 1} {
			r := best.Schedule[i].Round + delta
			if r < 0 || r >= rounds || len(plan) >= want {
				continue
			}
			variant := best
			variant.Schedule = append([]adversary.Event(nil), best.Schedule...)
			variant.Schedule[i].Round = r
			plan = append(plan, planned{strat: variant, op: "descent"})
		}
	}
	return plan
}

// evaluate fans the planned candidates across the runner pool — each
// at its global execution's deterministic seed — and scores them in
// point order.
func evaluate(base Spec, obj Objective, plan []planned, gen, execBase int) ([]Candidate, []Violation, error) {
	violations := make([][]Violation, len(plan))
	points := make([]runner.Point, len(plan))
	for j := range plan {
		j := j
		strat := plan[j].strat
		points[j] = runner.Point{
			Experiment: "campaign-search",
			Name:       fmt.Sprintf("%s/%s/gen=%d/cand=%d", base.Algo, strat.Generator, gen, j),
			Seed:       base.ExecSeed(execBase + j),
			FixedSeed:  true,
			Params: map[string]string{
				"algo": string(base.Algo), "gen": string(strat.Generator),
				"n": fmt.Sprint(base.N), "N": fmt.Sprint(base.BigN),
				"budget": fmt.Sprint(base.Budget),
				"search": "1", "generation": fmt.Sprint(gen),
				"op": plan[j].op, "exec": fmt.Sprint(execBase + j),
			},
			Run: func(seed int64) (runner.Metrics, error) {
				m, _, viols, err := execute(base, strat, seed)
				if err != nil {
					return runner.Metrics{}, err
				}
				for vi := range viols {
					viols[vi].Exec = execBase + j
				}
				violations[j] = viols
				return m, nil
			},
		}
	}
	records, err := runner.Run(points, runner.Options{Workers: base.Workers, Sinks: base.Sinks})
	if err != nil {
		return nil, nil, err
	}
	cands := make([]Candidate, len(records))
	var allViols []Violation
	for j, rec := range records {
		if rec.Err != "" {
			return nil, nil, fmt.Errorf("campaign: search gen %d cand %d: %s", gen, j, rec.Err)
		}
		cands[j] = Candidate{
			Strategy: plan[j].strat,
			Fitness:  Fitness(base, obj, rec.Metrics),
			Metrics:  rec.Metrics,
			Gen:      gen,
			Exec:     execBase + j,
			Op:       plan[j].op,
		}
		allViols = append(allViols, violations[j]...)
	}
	return cands, allViols, nil
}

// Fitness scores one execution's telemetry under the objective. It is
// exported so a plain sampling campaign can be scored with the same
// yardstick (the search-vs-sampling comparison of EXPERIMENTS.md E10).
func Fitness(spec Spec, obj Objective, m runner.Metrics) float64 {
	if obj == ObjectiveEnvelope {
		n := float64(spec.N)
		logn := math.Log2(math.Max(2, n))
		f := float64(m.Crashes + m.Byzantine)
		return float64(m.HonestMessages) / (EnvelopeConstant * (f + logn) * n * logn)
	}
	return float64(m.Rounds)
}

// BestFitness scores every record and returns the maximum — the
// sampling baseline's best under the search's yardstick.
func BestFitness(spec Spec, obj Objective, records []runner.Record) float64 {
	best := math.Inf(-1)
	for _, rec := range records {
		if f := Fitness(spec, obj, rec.Metrics); f > best {
			best = f
		}
	}
	return best
}

// normalizeReward maps a fitness into the bandit's [0, 1] reward scale:
// rounds against the oracle's round ceiling, envelope ratios clamped
// (both envelopes are exactly the "1.0 = at the theorem bound" scale).
func normalizeReward(spec Spec, obj Objective, fitness float64) float64 {
	if obj == ObjectiveRounds {
		if ceil := spec.Oracle.Expect.RoundCeiling; ceil > 0 {
			return fitness / float64(ceil)
		}
		// No round ceiling (e.g. a custom oracle): squash monotonically.
		return 1 - 1/(1+math.Max(0, fitness))
	}
	return fitness
}

// topElites merges the previous elite pool with a generation's
// candidates and keeps the EliteSize best; the stable sort keeps
// earlier candidates ahead on fitness ties, so the pool is
// deterministic in evaluation order.
func topElites(elites, cands []Candidate, size int) []Candidate {
	pool := append(append([]Candidate(nil), elites...), cands...)
	sort.SliceStable(pool, func(a, b int) bool { return pool[a].Fitness > pool[b].Fitness })
	if len(pool) > size {
		pool = pool[:size]
	}
	return pool
}
