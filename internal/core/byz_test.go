package core

import (
	"slices"
	"sort"
	"testing"

	"renaming/internal/bitvec"
	"renaming/internal/consensus"
	"renaming/internal/interval"
	"renaming/internal/sim"
)

// byzRun wires a mixed honest/Byzantine population and runs it to
// completion.
type byzRun struct {
	cfg     ByzConfig
	nw      *sim.Network
	honest  map[int]*ByzNode // link → node
	byzSet  map[int]bool
	correct []int // links of correct nodes
}

// buildByzRun makes nodes at the links listed in byz Byzantine with the
// given behaviour, everyone else honest.
func buildByzRun(t *testing.T, cfg ByzConfig, byz map[int]ByzBehavior) *byzRun {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	n := len(cfg.IDs)
	run := &byzRun{cfg: cfg, honest: make(map[int]*ByzNode), byzSet: make(map[int]bool)}
	simNodes := make([]sim.Node, n)
	var byzLinks, rushLinks []int
	for i := 0; i < n; i++ {
		if behavior, bad := byz[i]; bad {
			simNodes[i] = NewByzAttacker(cfg, i, behavior)
			run.byzSet[i] = true
			byzLinks = append(byzLinks, i)
			if behavior == BehaviorRushingEquivocate {
				rushLinks = append(rushLinks, i)
			}
			continue
		}
		node := NewByzNode(cfg, i)
		run.honest[i] = node
		run.correct = append(run.correct, i)
		simNodes[i] = node
	}
	run.nw = sim.NewNetwork(simNodes, sim.WithByzantine(byzLinks), sim.WithRushing(rushLinks))
	return run
}

// maxRounds estimates a generous round budget from the committee size.
func (run *byzRun) maxRounds() int {
	n := len(run.cfg.IDs)
	committee := n // worst case everyone
	perIter := consensus.ValidatorRounds + 2*consensus.RoundsFor(committee) + consensus.ExchangeRounds + 2
	iters := 4*(len(run.byzSet)+1)*(log2Ceil(run.cfg.N)+1) + 8
	return 3 + 2*perIter*iters
}

func (run *byzRun) execute(t *testing.T) {
	t.Helper()
	if err := run.nw.Run(run.maxRounds()); err != nil {
		for _, link := range run.correct {
			node := run.honest[link]
			if _, ok := node.Output(); !ok {
				t.Logf("correct node %d undecided: phase committee=%d votes=%d",
					link, node.CommitteeSize(), node.votes)
			}
		}
		t.Fatalf("run: %v (round %d)", err, run.nw.Round())
	}
}

// assumptionHolds reports whether the committee composition satisfies the
// paper's requirement (Byzantine members strictly below one third of the
// committee view) — runs violating it are outside the algorithm's
// guarantee envelope.
func (run *byzRun) assumptionHolds() bool {
	if len(run.correct) == 0 {
		return false
	}
	anyCorrect := run.honest[run.correct[0]]
	if anyCorrect.CommitteeSize() == 0 {
		return false
	}
	byzInCommittee := anyCorrect.ByzantineInCommittee(func(link int) bool { return run.byzSet[link] })
	return 3*byzInCommittee < anyCorrect.CommitteeSize()
}

// checkStrongOrderPreserving asserts uniqueness, range, and order
// preservation over the correct nodes.
func (run *byzRun) checkStrongOrderPreserving(t *testing.T) {
	t.Helper()
	n := len(run.cfg.IDs)
	type pair struct{ oldID, newID int }
	var pairs []pair
	seen := make(map[int]int)
	for _, link := range run.correct {
		node := run.honest[link]
		newID, ok := node.Output()
		if !ok {
			t.Fatalf("correct node %d (id %d) undecided", link, run.cfg.IDs[link])
		}
		if newID < 1 || newID > n {
			t.Fatalf("node %d new id %d outside [1,%d]", link, newID, n)
		}
		if prev, dup := seen[newID]; dup {
			t.Fatalf("nodes %d and %d share new id %d", prev, link, newID)
		}
		seen[newID] = link
		pairs = append(pairs, pair{oldID: run.cfg.IDs[link], newID: newID})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].oldID < pairs[b].oldID })
	for i := 1; i < len(pairs); i++ {
		if pairs[i].newID <= pairs[i-1].newID {
			t.Fatalf("order violated: old %d→%d but old %d→%d",
				pairs[i-1].oldID, pairs[i-1].newID, pairs[i].oldID, pairs[i].newID)
		}
	}
}

// checkPartitions asserts Lemma 3.8: all correct committee members
// processed the identical segment partition of [1, N].
func (run *byzRun) checkPartitions(t *testing.T) {
	t.Helper()
	var reference []string
	for _, link := range run.correct {
		node := run.honest[link]
		if !node.Elected() {
			continue
		}
		var segs []string
		total := 0
		for _, seg := range node.Partition() {
			segs = append(segs, seg.String())
			total += seg.Size()
		}
		sort.Strings(segs)
		if total != run.cfg.N {
			t.Fatalf("member %d partition covers %d ≠ N=%d", link, total, run.cfg.N)
		}
		if reference == nil {
			reference = segs
			continue
		}
		if len(segs) != len(reference) {
			t.Fatalf("member %d partition size %d ≠ %d", link, len(segs), len(reference))
		}
		for i := range segs {
			if segs[i] != reference[i] {
				t.Fatalf("member %d partition differs at %d: %s vs %s", link, i, segs[i], reference[i])
			}
		}
	}
}

func byzConfig(n, bigN int, seed int64, poolProb float64) ByzConfig {
	ids := make([]int, n)
	gap := bigN / n
	for i := range ids {
		ids[i] = i*gap + 1
	}
	return ByzConfig{N: bigN, IDs: ids, Seed: seed, PoolProb: poolProb}
}

func TestByzNoFaults(t *testing.T) {
	for _, n := range []int{4, 8, 16, 33} {
		cfg := byzConfig(n, 4*n, int64(n), 0) // paper constants: everyone on committee
		run := buildByzRun(t, cfg, nil)
		run.execute(t)
		run.checkStrongOrderPreserving(t)
		run.checkPartitions(t)
	}
}

func TestByzSilentFaults(t *testing.T) {
	n := 24
	cfg := byzConfig(n, 6*n, 3, 0)
	byz := map[int]ByzBehavior{2: BehaviorSilent, 9: BehaviorSilent, 17: BehaviorSilent}
	run := buildByzRun(t, cfg, byz)
	run.execute(t)
	if !run.assumptionHolds() {
		t.Skip("committee composition outside guarantee envelope")
	}
	run.checkStrongOrderPreserving(t)
	run.checkPartitions(t)
}

func TestByzSplitWorld(t *testing.T) {
	n := 24
	for seed := int64(0); seed < 4; seed++ {
		cfg := byzConfig(n, 8*n, seed, 0)
		byz := map[int]ByzBehavior{1: BehaviorSplitWorld, 7: BehaviorSplitWorld, 13: BehaviorSplitWorld}
		run := buildByzRun(t, cfg, byz)
		run.execute(t)
		if !run.assumptionHolds() {
			continue
		}
		run.checkStrongOrderPreserving(t)
		run.checkPartitions(t)
	}
}

func TestByzEquivocators(t *testing.T) {
	n := 24
	for seed := int64(0); seed < 4; seed++ {
		cfg := byzConfig(n, 8*n, seed, 0)
		byz := map[int]ByzBehavior{3: BehaviorEquivocate, 11: BehaviorEquivocate}
		run := buildByzRun(t, cfg, byz)
		run.execute(t)
		if !run.assumptionHolds() {
			continue
		}
		run.checkStrongOrderPreserving(t)
		run.checkPartitions(t)
	}
}

func TestByzSpammer(t *testing.T) {
	n := 16
	cfg := byzConfig(n, 4*n, 5, 0)
	byz := map[int]ByzBehavior{4: BehaviorSpam}
	run := buildByzRun(t, cfg, byz)
	run.execute(t)
	if !run.assumptionHolds() {
		t.Skip("committee composition outside guarantee envelope")
	}
	run.checkStrongOrderPreserving(t)
	run.checkPartitions(t)
}

// TestByzAttackerNewWireForm: attackers fabricate NEW messages in the
// one wire form correct members use — *PackedNew billed at bitsFor(n)+1,
// carrying an adversarial name in [1, n] — and a round's payloads stay
// intact through the next round, when recipients decode them.
func TestByzAttackerNewWireForm(t *testing.T) {
	n := 16
	cfg := byzConfig(n, 4*n, 5, 0)
	codec := newByzCodec(n, cfg.N)
	for _, behavior := range []ByzBehavior{BehaviorSpam, BehaviorEquivocate} {
		a := NewByzAttacker(cfg, 4, behavior)
		var sent []*PackedNew
		var values []NewPayload
		total := 0
		for round := 0; round < 8; round++ {
			out := a.Step(round, nil)
			for i, p := range sent {
				var got NewPayload
				codec.decodeNew(p, &got)
				if got != values[i] {
					t.Fatalf("behavior %d round %d: NEW %d sent last round now reads %+v, was %+v", behavior, round, i, got, values[i])
				}
			}
			sent, values = sent[:0], values[:0]
			for _, msg := range out {
				if msg.Payload.Kind() != KindNew {
					continue
				}
				p, ok := msg.Payload.(*PackedNew)
				if !ok {
					t.Fatalf("behavior %d round %d: NEW sent as %T", behavior, round, msg.Payload)
				}
				if p.Bits() != bitsFor(n)+1 {
					t.Fatalf("behavior %d round %d: NEW bills %d bits, want %d", behavior, round, p.Bits(), bitsFor(n)+1)
				}
				var v NewPayload
				codec.decodeNew(p, &v)
				if v.Null || v.NewID < 1 || v.NewID > n {
					t.Fatalf("behavior %d round %d: fabricated NEW %+v outside [1, %d]", behavior, round, v, n)
				}
				sent = append(sent, p)
				values = append(values, v)
			}
			total += len(sent)
		}
		if total == 0 {
			t.Fatalf("behavior %d sent no NEW messages", behavior)
		}
	}
}

// TestByzSmallCommittee uses a pool-probability override so the committee
// is a strict subset of the nodes, exercising the member/non-member
// asymmetry and the NEW quorum logic.
func TestByzSmallCommittee(t *testing.T) {
	n := 48
	found := false
	for seed := int64(0); seed < 8; seed++ {
		cfg := byzConfig(n, 4*n, seed, 0.15)
		byz := map[int]ByzBehavior{5: BehaviorSplitWorld, 19: BehaviorEquivocate}
		run := buildByzRun(t, cfg, byz)
		run.execute(t)
		if !run.assumptionHolds() {
			continue
		}
		found = true
		run.checkStrongOrderPreserving(t)
		run.checkPartitions(t)
	}
	if !found {
		t.Fatal("no seed produced a committee satisfying the assumption")
	}
}

// checkDistribution re-runs a member's distribution from its current
// state and checks every NEW against the naive rule: one message per
// heard link, in ascending identity order, carrying Rank(id)+1 when the
// link's identity is set in the list outside every dirty segment and a
// null vote otherwise. It returns how many votes were clean and how many
// null.
func checkDistribution(t *testing.T, node *ByzNode) (clean, null int) {
	t.Helper()
	node.outBuf = node.outBuf[:0]
	node.distribute()
	heard := 0
	for _, h := range node.heard {
		if h {
			heard++
		}
	}
	if len(node.outBuf) != heard {
		t.Fatalf("member %d sent %d NEW for %d heard identities", node.idx, len(node.outBuf), heard)
	}
	codec := newByzCodec(node.n, node.cfg.N)
	prev := 0
	for _, msg := range node.outBuf {
		id := node.cfg.IDs[msg.To]
		if id <= prev || !node.heard[msg.To] {
			t.Fatalf("member %d: NEW for identity %d (link %d) after identity %d", node.idx, id, msg.To, prev)
		}
		prev = id
		var got NewPayload
		codec.decodeNew(msg.Payload.(*PackedNew), &got)
		want := NewPayload{Null: true}
		dirty := false
		for _, seg := range node.dirty {
			dirty = dirty || seg.ContainsValue(id)
		}
		if node.list.Get(id) && !dirty {
			want = NewPayload{NewID: node.list.Rank(id) + 1}
			clean++
		} else {
			null++
		}
		if got != want {
			t.Fatalf("member %d: NEW for identity %d is %+v, want %+v", node.idx, id, got, want)
		}
	}
	return clean, null
}

// TestByzDistributeVotes checks distribution on a hand-built member: a
// clean identity gets Rank(id)+1, one inside a dirty segment or unset in
// the agreed list gets a null vote.
func TestByzDistributeVotes(t *testing.T) {
	const n, bigN = 40, 300
	cfg := byzConfig(n, bigN, 1, 0)
	// Identities in descending link order, so ascending identity order
	// is not link order.
	slices.Reverse(cfg.IDs)
	node := NewByzNode(cfg, 0)
	node.list = bitvec.New(bigN)
	node.heard = make([]bool, n)
	for link, id := range cfg.IDs {
		node.heard[link] = link%3 != 2
		if link%5 != 4 {
			node.list.Set(id) // every fifth identity is unset
		}
	}
	for pos := 2; pos <= bigN; pos += 37 {
		node.list.Set(pos) // ones no heard identity owns shift the ranks
	}
	node.dirty = []interval.Interval{interval.New(60, 95), interval.New(200, 231)}
	clean, null := checkDistribution(t, node)
	if clean == 0 || null == 0 {
		t.Fatalf("fixture covers %d clean and %d null votes, want both", clean, null)
	}
}

// TestByzTryDecideTally: the decision is the plurality non-null vote of a
// strong quorum of distinct committee members. Ties go to the smallest
// identity; a member's second vote and votes from non-members neither
// count toward the quorum nor toward any value.
func TestByzTryDecideTally(t *testing.T) {
	cfg := byzConfig(16, 64, 1, 0)
	codec := newByzCodec(16, 64)
	members := []int{2, 5, 9, 11, 14} // quorum: 4 of 5
	type vote struct{ from, id int }  // id 0 is a null vote
	for _, tc := range []struct {
		name    string
		votes   []vote
		decided bool
		want    int
	}{
		{"tie to smallest", []vote{{2, 7}, {5, 4}, {9, 7}, {11, 4}, {14, 0}}, true, 4},
		{"plurality", []vote{{2, 7}, {5, 4}, {9, 7}, {11, 7}, {14, 4}}, true, 7},
		{"duplicate ignored", []vote{{2, 4}, {2, 7}, {5, 7}, {9, 4}, {11, 7}, {14, 0}}, true, 4},
		{"non-member ignored", []vote{{3, 7}, {2, 4}, {5, 7}, {9, 4}, {11, 7}, {14, 0}}, true, 4},
		{"below quorum", []vote{{2, 4}, {2, 4}, {3, 4}, {5, 4}, {9, 4}}, false, 0},
		{"all null", []vote{{2, 0}, {5, 0}, {9, 0}, {11, 0}}, false, 0},
	} {
		node := NewByzNode(cfg, 0)
		node.memberLinks = members
		node.newVotes = make([]newVote, len(members))
		packed := make([]PackedNew, len(tc.votes))
		inbox := make([]sim.Message, len(tc.votes))
		for i, v := range tc.votes {
			packed[i] = codec.encodeNew(NewPayload{NewID: v.id, Null: v.id == 0})
			inbox[i] = sim.Message{From: v.from, To: 0, Payload: &packed[i]}
		}
		node.absorbNew(inbox)
		node.tryDecide()
		got, ok := node.Output()
		if ok != tc.decided || got != tc.want {
			t.Errorf("%s: Output() = %d, %v; want %d, %v", tc.name, got, ok, tc.want, tc.decided)
		}
	}
}
