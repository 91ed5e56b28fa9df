package renaming_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"renaming"
	"renaming/internal/adversary"
	"renaming/internal/core"
	"renaming/internal/sim"
)

// byzGoldenFingerprint pins the complete telemetry (JSON-marshalled
// Result, including per-round traffic profile) of one adversarial
// Byzantine execution at n = 256 with three attacker behaviours active,
// among them a rushing equivocator. Update it only for a deliberate
// behaviour change, never for a performance change: every engine or
// algorithm optimisation must reproduce this byte-for-byte.
const byzGoldenFingerprint = "da7a9623c7dd761709621943a28a9cf701931cbb8029943218bdae087bd2c171"

// byzSpamGoldenFingerprint pins the same telemetry for an execution at
// n = 64 with two spam attackers, which flood every node with fabricated
// NEW and subprotocol messages in every round from round 2 on (1105
// rounds in all). It covers the attacker NEW-payload path the
// equivocate case above only touches every third round.
const byzSpamGoldenFingerprint = "df4c443228543b51e349baab851beeccfe382b4312183993336b2b69bebdf921"

// TestByzantineDeterminism runs the same adversarial execution with the
// round engine pinned to 1 worker and to 8 workers and requires both to
// match the golden fingerprint. The 1-worker run exercises the
// coordinator-only fast paths (stepped-sender walks, zero-offset
// delivery); the 8-worker run exercises the sharded phases, barriers,
// and counting-sort delivery. Identical hashes prove the parallel engine
// is observationally equivalent to the sequential one on a workload with
// rushing adversaries, mid-protocol recursion, and shared broadcasts —
// the regression oracle the perf work is measured against.
func TestByzantineDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		byz    map[int]renaming.Behavior
		golden string
	}{
		{"mixed", 256, map[int]renaming.Behavior{
			1: renaming.BehaviorSplitWorld,
			4: renaming.BehaviorEquivocate,
			9: renaming.BehaviorRushingEquivocate,
		}, byzGoldenFingerprint},
		{"spam", 64, map[int]renaming.Behavior{
			2: renaming.BehaviorSpam,
			5: renaming.BehaviorSpam,
		}, byzSpamGoldenFingerprint},
	} {
		for _, workers := range []int{1, 8} {
			res, err := renaming.RunByzantine(tc.n, renaming.ByzSpec{
				Seed:          77,
				PoolProb:      20.0 / float64(tc.n),
				Byzantine:     tc.byz,
				Profile:       true,
				EngineWorkers: workers,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if !res.Unique {
				t.Fatalf("%s workers=%d: honest nodes did not rename uniquely", tc.name, workers)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s workers=%d: marshal: %v", tc.name, workers, err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.golden {
				t.Errorf("%s workers=%d: telemetry fingerprint %s, want %s", tc.name, workers, got, tc.golden)
			}
		}
	}
}

// TestByzMidSendNewDeterminism crashes two committee members mid-send in
// their distribution round. A mid-send filter draws one verdict per
// message in outbox order, so which recipients get a crashed member's NEW
// depends on the order distribute emits them in: that order must be a
// function of the run, so that repeated runs — at 1 and at 8 engine
// workers — agree on every node's received-message count and output.
func TestByzMidSendNewDeterminism(t *testing.T) {
	const n, distRound = 32, 231
	ids, err := renaming.GenerateIDs(n, 8*n, renaming.IDsEven, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ByzConfig{N: 8 * n, IDs: ids, Seed: 7, PoolProb: 0.3}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Precompute()
	run := func(workers int) string {
		nodes := make([]sim.Node, n)
		honest := make([]*core.ByzNode, n)
		for i := range nodes {
			if i == 3 {
				nodes[i] = core.NewByzAttacker(cfg, i, core.BehaviorSplitWorld)
				continue
			}
			honest[i] = core.NewByzNode(cfg, i)
			nodes[i] = honest[i]
		}
		sched := &adversary.EventSchedule{Seed: 7, Events: []adversary.Event{
			{Round: distRound, Node: 1, MidSend: true, Salt: 11},
			{Round: distRound, Node: 7, MidSend: true, Salt: 12},
		}}
		var distNew int64
		nw := sim.NewNetwork(nodes,
			sim.WithByzantine([]int{3}),
			sim.WithCrashAdversary(sched),
			sim.WithEngineWorkers(workers),
			sim.WithRoundDigest(func(d sim.RoundDigest) {
				if d.Round == distRound {
					distNew = d.PerKind[core.KindNew]
				}
			}))
		defer nw.Close()
		if err := nw.Run(1 << 16); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Guard the scenario itself: both crashed nodes are members whose
		// distribution round is the crash round.
		if !honest[1].Elected() || !honest[7].Elected() || nw.CrashedAt(1) != distRound || nw.CrashedAt(7) != distRound || distNew == 0 {
			t.Fatalf("workers=%d: scenario drifted: members %v/%v, crashed at %d/%d, %d NEW in round %d",
				workers, honest[1].Elected(), honest[7].Elected(), nw.CrashedAt(1), nw.CrashedAt(7), distNew, distRound)
		}
		outs := make([]int, n)
		for i, node := range honest {
			if node != nil {
				outs[i], _ = node.Output()
			}
		}
		return fmt.Sprintf("received=%v outputs=%v", nw.Metrics().PerNodeReceived, outs)
	}
	want := run(1)
	for rep := 0; rep < 4; rep++ {
		for _, workers := range []int{1, 8} {
			if got := run(workers); got != want {
				t.Fatalf("run %d at workers=%d diverged:\n got %s\nwant %s", rep, workers, got, want)
			}
		}
	}
}
