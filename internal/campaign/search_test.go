package campaign

import (
	"bytes"
	"math/rand"
	"testing"

	"renaming/internal/runner"
	"renaming/internal/sim"
)

// TestSearchDeterministicAcrossWorkers: a full search run — planning,
// bandit allocation, mutation, descent, evaluation — must produce
// byte-identical JSONL telemetry and an identical outcome at 1 and 8
// workers. This is the satellite determinism gate for the search path.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]byte, *SearchOutcome) {
		var buf bytes.Buffer
		out, err := Search(SearchSpec{
			Base: Spec{
				Algo: AlgoCrash, N: 32, Seed: 42, Budget: BudgetDefault,
				Workers: workers,
				Sinks:   []runner.Sink{&runner.JSONLSink{W: &buf, OmitVolatile: true}},
			},
			Objective:   ObjectiveRounds,
			BudgetExecs: 40,
			PopSize:     8,
		})
		if err != nil {
			t.Fatalf("search (workers=%d): %v", workers, err)
		}
		return buf.Bytes(), out
	}
	oneJSONL, one := run(1)
	eightJSONL, eight := run(8)
	if len(oneJSONL) == 0 {
		t.Fatal("search emitted no telemetry")
	}
	if !bytes.Equal(oneJSONL, eightJSONL) {
		t.Fatalf("search JSONL differs between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(oneJSONL), len(eightJSONL))
	}
	if one.Best.Fitness != eight.Best.Fitness || one.Best.Exec != eight.Best.Exec {
		t.Fatalf("best candidate differs across workers: %+v vs %+v", one.Best, eight.Best)
	}
	if one.ExecsUsed != 40 || eight.ExecsUsed != 40 {
		t.Fatalf("budget not exhausted exactly: %d and %d execs, want 40", one.ExecsUsed, eight.ExecsUsed)
	}
}

// TestSearchBeatsSampling: under an equal execution budget and the same
// master seed, the guided search's best fitness must be at least the
// pure-sampling campaign's best (scored with the same yardstick). The
// comparison is fully deterministic, so this is a regression gate on
// the search actually searching, not a statistical claim.
func TestSearchBeatsSampling(t *testing.T) {
	const budget = 120
	base := Spec{Algo: AlgoCrash, N: 64, Seed: 7, Budget: BudgetDefault}

	// The envelope objective discriminates between strategies (rounds
	// are deterministic for the crash algorithm without early-stop), so
	// it is the one a search must actually win on.
	searched, err := Search(SearchSpec{Base: base, Objective: ObjectiveEnvelope, BudgetExecs: budget})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run(Spec{
		Algo: base.Algo, N: base.N, Seed: base.Seed, Budget: base.Budget,
		Executions: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	samplingBest := BestFitness(sampled.Spec, ObjectiveEnvelope, sampled.Records)
	if searched.Best.Fitness < samplingBest {
		t.Fatalf("search best %.3f < sampling best %.3f under equal budget %d",
			searched.Best.Fitness, samplingBest, budget)
	}
	if searched.ExecsUsed != budget {
		t.Fatalf("search spent %d execs, want %d", searched.ExecsUsed, budget)
	}
	if len(searched.Violations) != 0 {
		t.Fatalf("search found %d oracle violations; first: %+v", len(searched.Violations), searched.Violations[0])
	}
}

// TestSearchByzantineObjectiveEnvelope: the search runs under the
// Byzantine algorithm with the envelope objective, spanning the byz-*
// and mixed-fault families without oracle violations.
func TestSearchByzantineObjectiveEnvelope(t *testing.T) {
	out, err := Search(SearchSpec{
		Base:        Spec{Algo: AlgoByzantine, N: 24, Seed: 5, Budget: BudgetDefault},
		Objective:   ObjectiveEnvelope,
		BudgetExecs: 12,
		PopSize:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("byzantine search found %d violations; first: %+v", len(out.Violations), out.Violations[0])
	}
	if out.Best.Fitness <= 0 {
		t.Fatalf("envelope fitness %.4f not positive", out.Best.Fitness)
	}
	pulls := 0
	for _, arm := range out.Arms {
		pulls += arm.Pulls
	}
	if pulls == 0 {
		t.Fatal("bandit recorded no pulls")
	}
}

// TestSearchRejectsBadSpecs: objective, budget and algo validation —
// search mutates one-shot strategies, so the service algo is refused.
func TestSearchRejectsBadSpecs(t *testing.T) {
	base := Spec{Algo: AlgoCrash, N: 32, Seed: 1, Budget: BudgetDefault}
	if _, err := Search(SearchSpec{Base: base, BudgetExecs: 0}); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := Search(SearchSpec{Base: base, BudgetExecs: 8, Objective: "latency"}); err == nil {
		t.Fatal("unknown objective accepted")
	}
	service := Spec{Algo: AlgoService, N: 64, Seed: 1, Budget: BudgetDefault}
	if _, err := Search(SearchSpec{Base: service, BudgetExecs: 8}); err == nil {
		t.Fatal("service algo accepted")
	}
}

// TestMutateStrategyInvariants: mutations preserve the generation
// envelope — budget, node-disjointness, round range, sortedness, and
// nonzero salts on added events — across a long deterministic chain.
func TestMutateStrategyInvariants(t *testing.T) {
	spec := GenSpec{Kind: GenMixed, N: 32, Budget: 8, Rounds: CrashRoundCeiling(32)}
	strat, err := Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 200; step++ {
		strat = mutateStrategy(strat, spec, rng)
		if len(strat.Schedule) > spec.Budget {
			t.Fatalf("step %d: %d events exceed budget %d", step, len(strat.Schedule), spec.Budget)
		}
		seen := make(map[int]bool)
		for i, ev := range strat.Schedule {
			if ev.Node < 0 || ev.Node >= spec.N || seen[ev.Node] {
				t.Fatalf("step %d: bad or duplicate node %d", step, ev.Node)
			}
			seen[ev.Node] = true
			if ev.Round < 0 || ev.Round >= spec.Rounds {
				t.Fatalf("step %d: round %d out of range", step, ev.Round)
			}
			if ev.Salt == 0 {
				t.Fatalf("step %d: event %d lost its salt", step, i)
			}
			if i > 0 && strat.Schedule[i-1].Round > ev.Round {
				t.Fatalf("step %d: schedule unsorted", step)
			}
		}
	}

	// Byzantine side: the corruption list never empties and never
	// exceeds the budget jointly with the crash list.
	bspec := GenSpec{Kind: GenMixedFault, N: 32, Budget: 6, Rounds: CrashRoundCeiling(32)}
	bstrat, err := Generate(bspec, 4)
	if err != nil {
		t.Fatal(err)
	}
	brng := rand.New(rand.NewSource(100))
	for step := 0; step < 200; step++ {
		bstrat = mutateStrategy(bstrat, bspec, brng)
		if len(bstrat.Byzantine) < 1 {
			t.Fatalf("step %d: corruption list emptied", step)
		}
		if len(bstrat.Byzantine)+len(bstrat.Schedule) > bspec.Budget {
			t.Fatalf("step %d: joint budget exceeded", step)
		}
		if _, err := bstrat.ByzMap(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, ev := range bstrat.Schedule {
			if ev.TargetCommittee {
				t.Fatalf("step %d: byz-side mutation produced a targeted event", step)
			}
		}
	}
}

// TestMutateDeterministic: the same rng stream reproduces the same
// mutation chain.
func TestMutateDeterministic(t *testing.T) {
	spec := GenSpec{Kind: GenTrickle, N: 32, Budget: 8, Rounds: CrashRoundCeiling(32)}
	strat, err := Generate(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	chain := func() Strategy {
		s := strat
		rng := sim.NewRand(11, 0xdead)
		for i := 0; i < 50; i++ {
			s = mutateStrategy(s, spec, rng)
		}
		return s
	}
	a, b := chain(), chain()
	if len(a.Schedule) != len(b.Schedule) {
		t.Fatalf("chain lengths differ: %d vs %d", len(a.Schedule), len(b.Schedule))
	}
	for i := range a.Schedule {
		if a.Schedule[i] != b.Schedule[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Schedule[i], b.Schedule[i])
		}
	}
}
