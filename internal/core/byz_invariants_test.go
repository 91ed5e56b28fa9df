package core

import (
	"testing"
)

// TestLemma310IterationBound: the divide-and-conquer loop terminates
// within 4·f·log N iterations (one when f = 0).
func TestLemma310IterationBound(t *testing.T) {
	n := 30
	for _, f := range []int{0, 1, 3, 6} {
		cfg := byzConfig(n, 8*n, 9, 0)
		byz := make(map[int]ByzBehavior, f)
		for i := 0; i < f; i++ {
			byz[4*i+1] = BehaviorSplitWorld
		}
		run := buildByzRun(t, cfg, byz)
		run.execute(t)
		if !run.assumptionHolds() {
			continue
		}
		iters := 0
		for _, link := range run.correct {
			if it := run.honest[link].Iterations(); it > iters {
				iters = it
			}
		}
		bound := 4 * f * (log2Ceil(cfg.N) + 1)
		if f == 0 {
			bound = 1
		}
		if iters > bound {
			t.Fatalf("f=%d: %d iterations exceed 4·f·logN = %d", f, iters, bound)
		}
	}
}

// TestFact36ListSemantics: after an execution, every correct committee
// member's agreed list contains every correct node's identity outside
// dirty segments, and the total ones never exceed n.
func TestFact36ListSemantics(t *testing.T) {
	n := 24
	cfg := byzConfig(n, 6*n, 21, 0)
	byz := map[int]ByzBehavior{2: BehaviorSplitWorld, 13: BehaviorSplitWorld}
	run := buildByzRun(t, cfg, byz)
	run.execute(t)
	if !run.assumptionHolds() {
		t.Skip("committee composition outside guarantee envelope")
	}
	run.checkStrongOrderPreserving(t)
	for _, link := range run.correct {
		node := run.honest[link]
		if !node.Elected() {
			continue
		}
		if got := node.list.Count(); got > n {
			t.Fatalf("member %d list has %d ones > n=%d", link, got, n)
		}
		for _, other := range run.correct {
			id := cfg.IDs[other]
			if node.inDirty(id) {
				continue
			}
			if !node.list.Get(id) {
				t.Fatalf("member %d lost correct identity %d outside dirty segments", link, id)
			}
		}
	}
}

// TestByzDirtyMembersAbstain: a member whose segment was replaced must
// not distribute identities within it; with split-world attackers there
// must exist at least one dirty segment somewhere (the attack works) and
// still a clean majority per segment (the algorithm works).
func TestByzDirtyMembersAbstain(t *testing.T) {
	n := 24
	cfg := byzConfig(n, 8*n, 33, 0)
	byz := map[int]ByzBehavior{1: BehaviorSplitWorld, 7: BehaviorSplitWorld}
	run := buildByzRun(t, cfg, byz)
	run.execute(t)
	if !run.assumptionHolds() {
		t.Skip("committee composition outside guarantee envelope")
	}
	run.checkStrongOrderPreserving(t)

	dirtyCounts := make(map[string]int)
	members := 0
	for _, link := range run.correct {
		node := run.honest[link]
		if !node.Elected() {
			continue
		}
		members++
		for _, seg := range node.DirtySegments() {
			dirtyCounts[seg.String()]++
		}
		checkDistribution(t, node)
	}
	for seg, count := range dirtyCounts {
		if 2*count >= members {
			t.Fatalf("segment %s dirty at %d/%d members — clean majority lost", seg, count, members)
		}
	}
}

// TestByzDeterminism: two runs with identical specs are bit-identical.
func TestByzDeterminism(t *testing.T) {
	run := func() (int64, int64, []int) {
		cfg := byzConfig(20, 160, 77, 0)
		byz := map[int]ByzBehavior{3: BehaviorEquivocate, 11: BehaviorSplitWorld}
		r := buildByzRun(t, cfg, byz)
		r.execute(t)
		m := r.nw.Metrics()
		ids := make([]int, 0, len(r.correct))
		for _, link := range r.correct {
			id, _ := r.honest[link].Output()
			ids = append(ids, id)
		}
		return m.Messages, m.Bits, ids
	}
	m1, b1, ids1 := run()
	m2, b2, ids2 := run()
	if m1 != m2 || b1 != b2 {
		t.Fatalf("metrics differ: (%d,%d) vs (%d,%d)", m1, b1, m2, b2)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("outputs differ at %d", i)
		}
	}
}

// TestByzSplitAlwaysAblation: the A2 ablation still renames correctly but
// pays ~2N iterations.
func TestByzSplitAlwaysAblation(t *testing.T) {
	n := 16
	cfg := byzConfig(n, 64, 5, 0)
	cfg.SplitAlways = true
	run := buildByzRun(t, cfg, nil)
	run.execute(t)
	run.checkStrongOrderPreserving(t)
	iters := 0
	for _, link := range run.correct {
		if it := run.honest[link].Iterations(); it > iters {
			iters = it
		}
	}
	if iters != 2*cfg.N-1 {
		t.Fatalf("split-always iterations = %d, want 2N−1 = %d", iters, 2*cfg.N-1)
	}
}

// TestByzPoolMembershipEnforced: a node outside the candidate pool cannot
// join the committee even if it claims to (the ELECT is rejected).
func TestByzPoolMembershipEnforced(t *testing.T) {
	n := 20
	cfg := byzConfig(n, 4*n, 3, 0.3) // sparse pool: most nodes excluded
	run := buildByzRun(t, cfg, nil)
	run.execute(t)
	pool := cfg.Pool()
	inPool := make(map[int]bool, len(pool))
	for _, id := range pool {
		inPool[id] = true
	}
	for _, link := range run.correct {
		node := run.honest[link]
		for _, member := range node.memberLinks {
			if id := cfg.IDs[member]; !inPool[id] {
				t.Fatalf("non-pool identity %d in committee view", id)
			}
		}
		if node.Elected() != inPool[cfg.IDs[link]] {
			t.Fatalf("node %d elected=%v but pool=%v", link, node.Elected(), inPool[cfg.IDs[link]])
		}
	}
}

// TestByzMinoritySplitDrivesDirtyPath: when a Byzantine node withholds
// its announcement from only a sub-third minority, the segment consensus
// succeeds and the deprived members must mark segments dirty, rewrite
// them to the agreed popcount, and abstain — while renaming stays unique
// and order-preserving.
func TestByzMinoritySplitDrivesDirtyPath(t *testing.T) {
	sawDirty := false
	for seed := int64(0); seed < 8 && !sawDirty; seed++ {
		cfg := byzConfig(24, 192, seed, 0)
		byz := map[int]ByzBehavior{1: BehaviorMinoritySplit, 13: BehaviorMinoritySplit}
		run := buildByzRun(t, cfg, byz)
		run.execute(t)
		if !run.assumptionHolds() {
			continue
		}
		run.checkStrongOrderPreserving(t)
		run.checkPartitions(t)
		for _, link := range run.correct {
			node := run.honest[link]
			if len(node.DirtySegments()) == 0 {
				continue
			}
			sawDirty = true
			// A dirty member's rewritten segment must hold the agreed
			// popcount — total ones still ≤ n.
			if node.list.Count() > len(cfg.IDs) {
				t.Fatalf("dirty member %d list count %d > n", link, node.list.Count())
			}
		}
	}
	if !sawDirty {
		t.Fatal("minority split never produced a dirty segment — the dirty path is untested")
	}
}

// TestByzSortitionElection: the sortition mode elects a committee without
// consuming shared randomness — the pool is seed-independent — and the
// algorithm still renames correctly.
func TestByzSortitionElection(t *testing.T) {
	n := 24
	base := byzConfig(n, 8*n, 3, 0.25)
	base.Election = ElectionSortition
	other := base
	other.Seed = 999 // pool must not depend on the seed
	poolA, poolB := base.Pool(), other.Pool()
	if len(poolA) != len(poolB) {
		t.Fatalf("sortition pool depends on the seed: %d vs %d", len(poolA), len(poolB))
	}
	for i := range poolA {
		if poolA[i] != poolB[i] {
			t.Fatal("sortition pool depends on the seed")
		}
	}
	shared := byzConfig(n, 8*n, 3, 0.25)
	sharedPool := shared.Pool()
	if len(sharedPool) == len(poolA) {
		same := true
		for i := range poolA {
			if sharedPool[i] != poolA[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("sortition pool identical to the beacon pool — mode not applied")
		}
	}

	found := false
	for seed := int64(0); seed < 8 && !found; seed++ {
		cfg := byzConfig(n, 8*n, seed, 0.25)
		cfg.Election = ElectionSortition
		byz := map[int]ByzBehavior{2: BehaviorSplitWorld}
		run := buildByzRun(t, cfg, byz)
		run.execute(t)
		if !run.assumptionHolds() {
			continue
		}
		found = true
		run.checkStrongOrderPreserving(t)
	}
	if !found {
		t.Fatal("no sortition run satisfied the committee assumption")
	}
}

// TestByzTinyNetworks exercises the degenerate sizes (single node, pairs)
// where committee machinery must still terminate.
func TestByzTinyNetworks(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		cfg := byzConfig(n, 4*n+2, int64(n), 0)
		run := buildByzRun(t, cfg, nil)
		run.execute(t)
		run.checkStrongOrderPreserving(t)
	}
}
