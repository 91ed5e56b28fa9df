package core

import (
	"math/rand"
	"testing"

	"renaming/internal/adversary"
	"renaming/internal/sim"
)

// phaseSnapshot captures (d̃, p̃, p̂) over alive nodes plus the per-node
// intervals, taken right after a NodeAction round.
type phaseSnapshot struct {
	minD, minP, maxP int
	anyUndecided     bool
}

func snapshot(nw *sim.Network, nodes []*CrashNode) phaseSnapshot {
	s := phaseSnapshot{minD: 1 << 30, minP: 1 << 30, maxP: -1}
	for i, node := range nodes {
		if !nw.Alive(i) {
			continue
		}
		iv, d, p := node.State()
		if !iv.Unit() {
			s.anyUndecided = true
			if d < s.minD {
				s.minD = d
			}
		}
		if p < s.minP {
			s.minP = p
		}
		if p > s.maxP {
			s.maxP = p
		}
	}
	return s
}

// stepPhases drives a crash execution phase by phase, calling check after
// every completed phase (i.e. after the NodeAction of the next phase's
// first round has run).
func stepPhases(t *testing.T, cfg CrashConfig, adv sim.CrashAdversary, check func(phase int, s phaseSnapshot)) {
	t.Helper()
	nw, nodes := buildCrashRun(t, cfg, adv, false)
	total := cfg.TotalRounds()
	for round := 0; round < total; round++ {
		nw.StepRound()
		// NodeAction for phase k runs in round 3(k+1); after stepping
		// that round, phase k is fully processed.
		if round%3 == 0 && round > 0 {
			check(round/3-1, snapshot(nw, nodes))
		}
	}
	checkUnique(t, nw, nodes)
}

// TestLemma25PGapAtMostOne: at every phase end, max p − min p ≤ 1 over
// alive nodes.
func TestLemma25PGapAtMostOne(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cfg := seqConfig(96, 800, seed)
		cfg.CommitteeScale = 0.03
		adv := &adversary.CommitteeKiller{
			Budget: 70, MidSend: true, Rand: rand.New(rand.NewSource(seed)),
		}
		stepPhases(t, cfg, adv, func(phase int, s phaseSnapshot) {
			if s.maxP >= 0 && s.maxP-s.minP > 1 {
				t.Fatalf("seed=%d phase=%d: p gap %d−%d > 1", seed, phase, s.maxP, s.minP)
			}
		})
	}
}

// responseWipe crashes the whole committee mid-send in one response
// round. Every crashed member's batch still reaches every link except
// link 0, so link 0 alone sees a wipe (Figure 3 lines 1–3) and moves to
// p+1 while every other node keeps p.
type responseWipe struct{ round int }

func (a responseWipe) Crashes(v sim.View) []sim.CrashOrder {
	if v.Round != a.round {
		return nil
	}
	var orders []sim.CrashOrder
	for i, alive := range v.Alive {
		if alive && v.Peek(i).(CrashPeek).Elected {
			orders = append(orders, sim.CrashOrder{Node: i, Filter: func(to int) bool { return to != 0 }})
		}
	}
	return orders
}

// TestFigure3CatchUpOnP drives Figure 3's catch-up on p: a node that
// hears a larger p adopts it and draws re-election. Killer schedules
// crash members before they respond, so every wipe is global and p never
// diverges; here the wipe reaches link 0 only. The p-gap of exactly one
// that opens at that phase end must close at the next one, with max p
// unchanged: link 0, re-elected at the larger p, is then the whole
// committee and stamps its responses with it.
func TestFigure3CatchUpOnP(t *testing.T) {
	const wipeRound = 8 // phase 2's response round
	for _, n := range []int{64, 256} {
		for _, seed := range []int64{1, 3} {
			cfg := seqConfig(n, 16*n, seed)
			cfg.CommitteeScale = 0.02
			gapPhase, gapP := -1, 0
			stepPhases(t, cfg, responseWipe{round: wipeRound}, func(phase int, s phaseSnapshot) {
				switch {
				case gapPhase < 0 && s.maxP-s.minP == 1:
					gapPhase, gapP = phase, s.maxP
				case gapPhase >= 0 && phase == gapPhase+1:
					if s.maxP != s.minP || s.maxP != gapP {
						t.Errorf("n=%d seed=%d phase=%d: p range [%d, %d] one phase after the gap opened at max p %d, want closed at %d",
							n, seed, phase, s.minP, s.maxP, gapP, gapP)
					}
				}
				if s.maxP-s.minP > 1 {
					t.Fatalf("n=%d seed=%d phase=%d: p gap %d−%d > 1", n, seed, phase, s.maxP, s.minP)
				}
			})
			if gapPhase != wipeRound/3 {
				t.Errorf("n=%d seed=%d: p gap of one opened at phase %d, want phase %d (the wipe's)", n, seed, gapPhase, wipeRound/3)
			}
		}
	}
}

// TestLemma22And24Progress: every two phases, either the minimum depth of
// undecided nodes or the minimum p increases.
func TestLemma22And24Progress(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cfg := seqConfig(64, 600, seed)
		cfg.CommitteeScale = 0.03
		adv := &adversary.CommitteeKiller{
			Budget: 40, MidSend: true, Rand: rand.New(rand.NewSource(seed + 50)),
		}
		var history []phaseSnapshot
		stepPhases(t, cfg, adv, func(phase int, s phaseSnapshot) {
			history = append(history, s)
			if len(history) < 3 {
				return
			}
			prev := history[len(history)-3]
			if !prev.anyUndecided || !s.anyUndecided {
				return // depth frontier no longer defined once all decided
			}
			if s.minD < prev.minD {
				t.Fatalf("seed=%d phase=%d: min depth regressed %d→%d", seed, phase, prev.minD, s.minD)
			}
			if s.minD == prev.minD && s.minP <= prev.minP {
				t.Fatalf("seed=%d phase=%d: no progress over two phases (d=%d, p %d→%d)",
					seed, phase, s.minD, prev.minP, s.minP)
			}
		})
	}
}

// TestLemma23OccupancyEveryPhase: the interval-occupancy invariant holds
// at every phase end, not just at termination.
func TestLemma23OccupancyEveryPhase(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cfg := seqConfig(48, 400, seed)
		cfg.CommitteeScale = 0.05
		adv := &adversary.RandomCrashes{
			Budget: 30, Prob: 0.12, MidSendProb: 0.6,
			Rand: rand.New(rand.NewSource(seed + 7)),
		}
		nw, nodes := buildCrashRun(t, cfg, adv, false)
		total := cfg.TotalRounds()
		for round := 0; round < total; round++ {
			nw.StepRound()
			if round%3 != 0 || round == 0 {
				continue
			}
			for i, outerNode := range nodes {
				if !nw.Alive(i) {
					continue
				}
				outer, _, _ := outerNode.State()
				inside := 0
				for j, innerNode := range nodes {
					if !nw.Alive(j) {
						continue
					}
					inner, _, _ := innerNode.State()
					if outer.Contains(inner) {
						inside++
					}
				}
				if inside > outer.Size() {
					t.Fatalf("seed=%d round=%d: %v holds %d > %d nodes",
						seed, round, outer, inside, outer.Size())
				}
			}
		}
		checkUnique(t, nw, nodes)
	}
}

// TestCrashAblationDoublingOff: with re-election doubling disabled and a
// relentless committee killer, node election probability never rises, so
// the run frequently exhausts its phases undecided — the property the
// doubling exists to prevent. We only require that the ablation is
// observably weaker than the paper's variant across seeds.
func TestCrashAblationDoublingOff(t *testing.T) {
	failuresOn, failuresOff := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		for _, disable := range []bool{false, true} {
			cfg := seqConfig(128, 1200, seed)
			cfg.CommitteeScale = 0.02
			cfg.DisableReelectionDoubling = disable
			adv := &adversary.CommitteeKiller{
				Budget: 127, MidSend: true, Rand: rand.New(rand.NewSource(seed * 3)),
			}
			nw, nodes := buildCrashRun(t, cfg, adv, false)
			if err := nw.Run(cfg.TotalRounds() + 1); err != nil {
				t.Fatal(err)
			}
			failed := false
			for i, node := range nodes {
				if !nw.Alive(i) {
					continue
				}
				if _, ok := node.Output(); !ok {
					failed = true
				}
			}
			if failed {
				if disable {
					failuresOff++
				} else {
					failuresOn++
				}
			}
		}
	}
	if failuresOn > failuresOff {
		t.Fatalf("ablation outperformed the paper's design: on=%d off=%d failures", failuresOn, failuresOff)
	}
	t.Logf("undecided runs: doubling on %d/12, doubling off %d/12", failuresOn, failuresOff)
}

// TestCrashMessageCeiling: the deterministic Θ(n² log n) ceiling of
// Theorem 1.2 with an explicit constant.
func TestCrashMessageCeiling(t *testing.T) {
	n := 128
	for seed := int64(0); seed < 4; seed++ {
		cfg := seqConfig(n, 1024, seed)
		// Paper constants: committee = everyone → the true worst case.
		adv := &adversary.RandomCrashes{Budget: n / 2, Prob: 0.1, Rand: rand.New(rand.NewSource(seed))}
		nw, nodes := runCrash(t, cfg, adv)
		checkUnique(t, nw, nodes)
		logn := log2Ceil(n)
		ceiling := int64(10) * int64(n) * int64(n) * int64(logn)
		if nw.Metrics().Messages > ceiling {
			t.Fatalf("seed=%d: %d messages exceed 10·n²·log n = %d", seed, nw.Metrics().Messages, ceiling)
		}
	}
}

// TestCrashEarlyStop: the early-stopping extension halts well before the
// full phase budget in failure-free runs and stays correct under the
// committee killer.
func TestCrashEarlyStop(t *testing.T) {
	cfg := seqConfig(128, 1024, 3)
	cfg.EarlyStop = true
	nw, nodes := runCrash(t, cfg, nil)
	checkUnique(t, nw, nodes)
	full := cfg.TotalRounds()
	if nw.Round() >= full {
		t.Fatalf("early stop did not engage: %d rounds (budget %d)", nw.Round(), full)
	}
	if nw.Round() > 3*(log2Ceil(128)+3) {
		t.Fatalf("early stop too slow: %d rounds", nw.Round())
	}

	for seed := int64(0); seed < 4; seed++ {
		cfg := seqConfig(96, 800, seed)
		cfg.EarlyStop = true
		cfg.CommitteeScale = 0.05
		adv := &adversary.CommitteeKiller{Budget: 60, MidSend: true,
			Rand: rand.New(rand.NewSource(seed))}
		nw, nodes := runCrash(t, cfg, adv)
		checkUnique(t, nw, nodes)
	}
}

// TestLemma26CommitteeCount: the number of nodes ever elected stays
// within O(2^p̂·log n) — the committee-size bound behind the message
// complexity. We allow a generous constant (the paper's is 3·512).
func TestLemma26CommitteeCount(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		n := 192
		cfg := seqConfig(n, 1600, seed)
		cfg.CommitteeScale = 0.02
		adv := &adversary.CommitteeKiller{
			Budget: n - 1, MidSend: true, Rand: rand.New(rand.NewSource(seed + 11)),
		}
		nw, nodes := runCrash(t, cfg, adv)
		checkUnique(t, nw, nodes)
		maxP, ever := 0, 0
		for _, node := range nodes {
			_, _, p := node.State()
			if p > maxP {
				maxP = p
			}
			if node.EverElected() {
				ever++
			}
		}
		logn := float64(log2Ceil(n))
		bound := 3 * 512 * cfg.CommitteeScale * float64(uint64(1)<<uint(maxP)) * logn
		if bound > float64(n) {
			bound = float64(n)
		}
		if float64(ever) > bound {
			t.Fatalf("seed=%d: %d nodes ever elected exceed bound %.0f (p̂=%d)", seed, ever, bound, maxP)
		}
	}
}
