package campaign

import (
	"os"
	"path/filepath"
	"testing"

	"renaming/internal/adversary"
)

// TestShrinkScheduleToPlantedCore plants a violation predicate — the
// "uniqueness breach" reproduces iff the schedule still crashes both
// node 3 and node 7 — inside a 16-event schedule and checks
// ShrinkStrategy reduces it to exactly the two-event core with grounded
// attributes.
func TestShrinkScheduleToPlantedCore(t *testing.T) {
	strat, err := Generate(GenSpec{Kind: GenMixed, N: 64, Budget: 16, Rounds: 30}, 12345)
	if err != nil {
		t.Fatal(err)
	}
	// Ensure the core events are present regardless of what the
	// generator drew.
	strat.Schedule = append(strat.Schedule,
		adversary.Event{Round: 9, Node: 3, MidSend: true, Salt: 0x5a17},
		adversary.Event{Round: 17, Node: 7, MidSend: true, Salt: 0x5a18},
	)
	fails := func(s Strategy) (bool, error) {
		has := map[int]bool{}
		for _, ev := range s.Schedule {
			has[ev.Node] = true
		}
		return has[3] && has[7], nil
	}
	shrunk, err := ShrinkStrategy(strat, fails)
	if err != nil {
		t.Fatal(err)
	}
	if len(shrunk.Schedule) != 2 {
		t.Fatalf("want 2-event core, got %d: %+v", len(shrunk.Schedule), shrunk.Schedule)
	}
	core := map[int]bool{}
	for _, ev := range shrunk.Schedule {
		core[ev.Node] = true
		// Attribute simplification must have grounded both fields: the
		// predicate is insensitive to them.
		if ev.MidSend || ev.Round != 0 {
			t.Fatalf("event not simplified: %+v", ev)
		}
	}
	if !core[3] || !core[7] {
		t.Fatalf("core lost the planted nodes: %+v", shrunk.Schedule)
	}
	// The shrunk strategy still fails — the shrinker's contract.
	still, _ := fails(shrunk)
	if !still {
		t.Fatal("shrunk strategy no longer fails")
	}
}

// TestShrinkByzantineToPlantedCore: same idea over a corruption set.
func TestShrinkByzantineToPlantedCore(t *testing.T) {
	strat := Strategy{Generator: GenByzUniform, Byzantine: []ByzAssignment{
		{Link: 1, Behavior: "silent"}, {Link: 4, Behavior: "equivocate"},
		{Link: 6, Behavior: "spam"}, {Link: 9, Behavior: "splitworld"},
		{Link: 12, Behavior: "silent"}, {Link: 15, Behavior: "minoritysplit"},
	}}
	fails := func(s Strategy) (bool, error) {
		for _, a := range s.Byzantine {
			if a.Link == 9 {
				return true, nil
			}
		}
		return false, nil
	}
	shrunk, err := ShrinkStrategy(strat, fails)
	if err != nil {
		t.Fatal(err)
	}
	if len(shrunk.Byzantine) != 1 || shrunk.Byzantine[0].Link != 9 {
		t.Fatalf("want single corruption of link 9, got %+v", shrunk.Byzantine)
	}
}

// TestBrokenOracleDetectShrinkReplay is the end-to-end fixture demanded
// by the issue: a deliberately broken oracle (round ceiling 1 — every
// execution violates it) must produce detections, shrink to a
// replayable artifact, survive a save/load roundtrip, and replay.
func TestBrokenOracleDetectShrinkReplay(t *testing.T) {
	broken := CrashExpectation(32)
	broken.RoundCeiling = 1 // impossible: the algorithm needs Θ(log n) rounds
	spec := Spec{
		Algo: AlgoCrash, N: 32, Executions: 5, Seed: 77,
		Budget: BudgetDefault,
		Oracle: &Oracle{Expect: broken},
	}
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 5 {
		t.Fatalf("broken oracle should flag every execution: got %d of 5", len(out.Violations))
	}
	v := out.Violations[0]
	if v.Invariant != InvRoundCeiling {
		t.Fatalf("want %s, got %s", InvRoundCeiling, v.Invariant)
	}

	artifact, err := Shrink(out.Spec, v)
	if err != nil {
		t.Fatal(err)
	}
	// The breach does not depend on the schedule at all, so the shrinker
	// must reduce it to the empty schedule — the minimal reproducer.
	if len(artifact.Strategy.Schedule) != 0 {
		t.Fatalf("want empty shrunk schedule, got %+v", artifact.Strategy.Schedule)
	}

	path := filepath.Join(t.TempDir(), "repro.json")
	if err := SaveArtifact(artifact, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != v.Seed || loaded.Invariant != InvRoundCeiling || loaded.N != 32 {
		t.Fatalf("artifact roundtrip lost fields: %+v", loaded)
	}

	res, viols, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	// Replay uses the *correct* default oracle, so no violation recurs —
	// but the recorded breach must still be visible in the result.
	if len(viols) != 0 {
		t.Fatalf("default oracle flagged a correct run: %+v", viols)
	}
	if res.Rounds <= 1 {
		t.Fatalf("replayed run took %d rounds; the recorded breach (rounds > 1) vanished", res.Rounds)
	}
	if !res.Unique {
		t.Fatal("replayed run lost uniqueness")
	}
}

// TestArtifactVersionAndLegacyReplay: new artifacts carry the current
// format version, and LoadArtifact refuses every other version with an
// error — a pre-salt artifact (no version field, salt-less mid-send
// events keyed by slice index) can no longer replay faithfully, and an
// artifact from a future format would be misread. A current-version
// artifact that names no runnable execution — an unknown algo, a
// generator of another algo, an unknown behavior — loads but fails to
// replay with an error, never a panic.
func TestArtifactVersionAndLegacyReplay(t *testing.T) {
	broken := CrashExpectation(32)
	broken.RoundCeiling = 1
	out, err := Run(Spec{
		Algo: AlgoCrash, N: 32, Executions: 1, Seed: 77,
		Budget: BudgetDefault, Oracle: &Oracle{Expect: broken},
	})
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := Shrink(out.Spec, out.Violations[0])
	if err != nil {
		t.Fatal(err)
	}
	if artifact.Version != ArtifactVersion {
		t.Fatalf("new artifact has version %d, want %d", artifact.Version, ArtifactVersion)
	}

	dir := t.TempDir()
	for name, blob := range map[string]string{
		// A hand-rolled pre-salt artifact, exactly what version-0 releases
		// wrote: no "version" key, no "salt" on the mid-send events.
		"legacy": `{
			"algo": "crash", "n": 32, "N": 512, "seed": 99,
			"invariant": "round-ceiling", "detail": "legacy fixture",
			"strategy": {
				"generator": "trickle",
				"schedule": [
					{"round": 2, "node": 5, "midSend": true},
					{"round": 6, "node": 11, "midSend": true}
				],
				"scheduleSeed": 1234
			}
		}`,
		"version1": `{"version": 1, "algo": "crash", "n": 32, "N": 512, "seed": 1, "invariant": "uniqueness", "strategy": {"generator": "mixed"}}`,
		"future":   `{"version": 99, "algo": "crash", "n": 32, "N": 512, "seed": 1, "invariant": "uniqueness", "strategy": {"generator": "mixed"}}`,
		"unknown-algo": `{"version": 2, "algo": "byzantine-typo", "n": 32, "N": 512, "seed": 1, "invariant": "uniqueness",
			"strategy": {"generator": "mixed", "schedule": [{"round": 2, "node": 5, "salt": 7}]}}`,
		"mismatched-generator": `{"version": 2, "algo": "crash", "n": 32, "N": 512, "seed": 1, "invariant": "uniqueness",
			"strategy": {"generator": "byz-uniform", "byzantine": [{"link": 3, "behavior": "spam"}]}}`,
		"unknown-behavior": `{"version": 2, "algo": "byzantine", "n": 32, "N": 256, "seed": 1, "invariant": "uniqueness",
			"strategy": {"generator": "byz-uniform", "byzantine": [{"link": 3, "behavior": "laser"}]}}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := LoadArtifact(path)
		if err == nil {
			_, _, err = a.Replay()
		}
		if err == nil {
			t.Fatalf("%s artifact (version %d) accepted", name, a.Version)
		}
	}
}

// TestShrinkRefusesNonReproducing: a violation that does not reproduce
// under its own (seed, strategy) must be rejected, not "shrunk".
func TestShrinkRefusesNonReproducing(t *testing.T) {
	spec := Spec{Algo: AlgoCrash, N: 32, Executions: 1, Seed: 1, Budget: BudgetDefault}
	norm, err := spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	fake := Violation{
		Exec: 0, Seed: norm.ExecSeed(0),
		Invariant: InvUniqueness, Detail: "fabricated",
		Strategy: Strategy{Generator: GenMixed},
	}
	if _, err := Shrink(norm, fake); err == nil {
		t.Fatal("expected refusal for a non-reproducing violation")
	}
}

// TestShrinkChurnToPlantedCore: ShrinkStrategy reduces an epoch-keyed
// event list to a planted two-event core, grounds the surviving events'
// round/mid-send attributes, and never moves an event across epochs.
func TestShrinkChurnToPlantedCore(t *testing.T) {
	strat, err := Generate(GenSpec{
		Kind: GenChurn, N: 64, Budget: 14, Rounds: 30, Epochs: 10, BatchMax: 8,
	}, 4242)
	if err != nil {
		t.Fatal(err)
	}
	strat.Churn = append(strat.Churn,
		ChurnEvent{Epoch: 3, Event: adversary.Event{Round: 9, Node: 2, MidSend: true, Salt: 0x5a19}},
		ChurnEvent{Epoch: 7, Event: adversary.Event{Round: 17, Node: 5, MidSend: true, Salt: 0x5a1a}},
	)
	fails := func(s Strategy) (bool, error) {
		has := map[int]bool{}
		for _, ev := range s.Churn {
			has[ev.Epoch] = true
		}
		return has[3] && has[7], nil
	}
	shrunk, err := ShrinkStrategy(strat, fails)
	if err != nil {
		t.Fatal(err)
	}
	if len(shrunk.Churn) != 2 {
		t.Fatalf("want 2-event core, got %d: %+v", len(shrunk.Churn), shrunk.Churn)
	}
	core := map[int]bool{}
	for _, ev := range shrunk.Churn {
		core[ev.Epoch] = true
		if ev.MidSend || ev.Round != 0 {
			t.Fatalf("event not simplified: %+v", ev)
		}
	}
	if !core[3] || !core[7] {
		t.Fatalf("core lost the planted epochs: %+v", shrunk.Churn)
	}
	if still, _ := fails(shrunk); !still {
		t.Fatal("shrunk strategy no longer fails")
	}
}

// TestServiceArtifactRoundtripReplay: a hand-built service artifact —
// churn strategy plus epoch count — survives save/load and replays the
// whole trace through the service oracle, returning trace-aggregate
// metrics and zero violations (the service is correct).
func TestServiceArtifactRoundtripReplay(t *testing.T) {
	strat, err := Generate(GenSpec{
		Kind: GenChurn, N: 32, Budget: 8,
		Rounds: CrashRoundCeiling(8), Epochs: 12, BatchMax: 8,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	artifact := &ReproArtifact{
		Version: ArtifactVersion,
		Algo:    AlgoService, N: 32, BigN: 512, Seed: 5, Epochs: 12,
		Invariant: InvUniqueness, Detail: "fixture", Strategy: strat,
	}
	path := filepath.Join(t.TempDir(), "service.json")
	if err := SaveArtifact(artifact, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epochs != 12 || loaded.Algo != AlgoService {
		t.Fatalf("artifact roundtrip lost fields: %+v", loaded)
	}
	res, viols, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Fatalf("service replay flagged a correct trace: %+v", viols)
	}
	if res == nil || !res.Unique {
		t.Fatalf("service replay lost uniqueness: %+v", res)
	}
	if res.Rounds <= 0 || res.Messages <= 0 {
		t.Fatalf("service replay returned empty aggregate metrics: %+v", res)
	}
}
