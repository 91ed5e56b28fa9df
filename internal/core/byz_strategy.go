package core

import (
	"math/rand"
	"sort"

	"renaming/internal/consensus"
	"renaming/internal/sim"
)

// ByzBehavior selects how a Byzantine node misbehaves. The adversary
// "Carlo" is static: the corrupted set and each node's behaviour are
// fixed before activation (Section 1).
type ByzBehavior int

const (
	// BehaviorSilent never sends anything — the Byzantine simulation of
	// a crash failure.
	BehaviorSilent ByzBehavior = iota + 1
	// BehaviorSplitWorld announces its identity to only half of the
	// committee, the paper's central attack: correct committee members
	// end up with diverging identity lists, forcing the fingerprint
	// divide-and-conquer to isolate the difference.
	BehaviorSplitWorld
	// BehaviorEquivocate is BehaviorSplitWorld plus active subprotocol
	// interference: it joins the committee when sampled, sends
	// conflicting random values to different members in every
	// subprotocol round, reports random diffs, and fabricates early NEW
	// messages to lure nodes into deciding on fake identities.
	BehaviorEquivocate
	// BehaviorSpam floods every node with correctly-tagged garbage
	// subprotocol messages and fake NEW messages every round.
	BehaviorSpam
	// BehaviorMinoritySplit withholds its identity announcement from a
	// sub-third minority of the committee. Unlike the half/half split,
	// the majority still reaches validator agreement, so the segment
	// consensus *succeeds* and the deprived minority must take the dirty
	// path: rewrite the segment to the agreed popcount and abstain from
	// distributing identities inside it.
	BehaviorMinoritySplit
	// BehaviorRushingEquivocate exploits the rushing power of the
	// synchronous model (run it under sim.WithRushing): each round it
	// inspects the honest subprotocol messages of the *current* round
	// before speaking and sends the least common value to one half of
	// the committee and the most common to the other — the strongest
	// vote-splitting pressure a single Byzantine member can apply to the
	// phase-king and validator thresholds.
	BehaviorRushingEquivocate
)

// ByzAttacker is a Byzantine node driven by a fixed behaviour. It knows
// everything a node may know: the shared randomness (public), its own
// identity, and the committee membership it observes.
type ByzAttacker struct {
	idx      int
	id       int
	n        int
	cfg      ByzConfig
	behavior ByzBehavior
	rng      *rand.Rand

	poolSet     []bool // shared pool-membership bitset, indexed by identity
	memberLinks []int
	inPool      bool
	spamTargets []int      // all links, precomputed for BehaviorSpam
	outBuf      sim.Outbox // attack-round scratch, valid until next Step

	// codec encodes fabricated NEW payloads into the one wire form
	// correct members use. newArenas hold them, alternating by round
	// parity: recipients decode round r's payloads during round r+1,
	// possibly on another worker, while the attacker fills the other
	// arena.
	codec     byzCodec
	newArenas [2][]PackedNew
}

var _ sim.Node = (*ByzAttacker)(nil)
var _ sim.Quiescent = (*ByzAttacker)(nil)

// NewByzAttacker constructs a Byzantine node at link idx with the given
// behaviour. Like NewByzNode, a Precomputed cfg shares the candidate-
// pool bitset across nodes.
func NewByzAttacker(cfg ByzConfig, idx int, behavior ByzBehavior) *ByzAttacker {
	cfg = cfg.Precompute()
	a := &ByzAttacker{
		idx:      idx,
		id:       cfg.IDs[idx],
		n:        len(cfg.IDs),
		cfg:      cfg,
		behavior: behavior,
		rng:      sim.NewRand(cfg.Seed, 0x62797a<<20|uint64(idx)), // "byz" stream
		poolSet:  cfg.pre.poolSet,
		inPool:   false,
		codec:    newByzCodec(len(cfg.IDs), cfg.N),
	}
	if behavior == BehaviorSpam {
		a.spamTargets = make([]int, a.n)
		for i := range a.spamTargets {
			a.spamTargets[i] = i
		}
	}
	return a
}

// pooled reports whether the identity is in the candidate pool, bounds-
// checked because ELECT payloads from the wire carry arbitrary values.
func (a *ByzAttacker) pooled(id int) bool {
	return id >= 1 && id < len(a.poolSet) && a.poolSet[id]
}

// Output implements sim.Node; an attacker never decides.
func (a *ByzAttacker) Output() (int, bool) { return 0, false }

// Halted implements sim.Node. Attackers report halted so the network can
// stop as soon as every correct node finished; they still get stepped (and
// can keep attacking) until then.
func (a *ByzAttacker) Halted() bool { return true }

// Idle implements sim.Quiescent for the silent behaviour only: a silent
// attacker returns nil at every round without touching state or
// randomness. Every other behaviour acts (or consumes randomness) even on
// an empty inbox, so it must be stepped.
func (a *ByzAttacker) Idle() bool { return a.behavior == BehaviorSilent }

// Step implements sim.Node.
func (a *ByzAttacker) Step(round int, inbox []sim.Message) sim.Outbox {
	if a.behavior == BehaviorSilent {
		return nil
	}
	switch round {
	case 0:
		// Announce committee candidacy like an honest node would: the
		// attacker wants to be inside the committee.
		if a.pooled(a.id) {
			a.inPool = true
			return sim.Broadcast(a.idx, a.n, ElectPayload{ID: a.id, SizeN: a.cfg.N})
		}
		return nil
	case 1:
		a.learnCommittee(inbox)
		return a.splitAnnounce()
	default:
		return a.attackRound(round, inbox)
	}
}

func (a *ByzAttacker) learnCommittee(inbox []sim.Message) {
	for _, msg := range inbox {
		e, ok := msg.Payload.(ElectPayload)
		if !ok || !a.pooled(e.ID) || !a.cfg.VerifyIdentity(msg.From, e.ID) {
			continue
		}
		a.memberLinks = append(a.memberLinks, msg.From)
	}
	sort.Ints(a.memberLinks)
}

// splitAnnounce sends the identity announcement to a behaviour-dependent
// subset of the committee (sorted by link): the first half for the
// half/half split (maximizing identity-list divergence and forcing
// recursion), or all but a sub-third minority for the minority split
// (forcing the dirty path).
func (a *ByzAttacker) splitAnnounce() sim.Outbox {
	targets := a.memberLinks
	switch {
	case len(a.memberLinks) <= 1:
	case a.behavior == BehaviorMinoritySplit:
		skip := (len(a.memberLinks) + 3) / 4 // < 1/3: agreement still reached
		targets = a.memberLinks[skip:]
	default:
		targets = a.memberLinks[:len(a.memberLinks)/2]
	}
	return sim.Multicast(a.idx, targets, AnnouncePayload{ID: a.id, SizeN: a.cfg.N})
}

// attackRound emits the behaviour's per-round interference. Subprotocol
// messages are tagged with the counter value honest members use in this
// round (pc = round − 2), so they pass the receivers' freshness filter.
// The helpers append into a.outBuf, reset here and valid until the next
// Step call.
func (a *ByzAttacker) attackRound(round int, inbox []sim.Message) sim.Outbox {
	a.outBuf = a.outBuf[:0]
	switch a.behavior {
	case BehaviorRushingEquivocate:
		if !a.inPool {
			return nil
		}
		a.rushSplit(round, inbox)
	case BehaviorEquivocate:
		if a.inPool {
			a.equivocateSub(round, a.memberLinks)
		}
		a.fakeNew(round)
	case BehaviorSpam:
		a.equivocateSub(round, a.spamTargets)
		arena := a.newArena(round, len(a.spamTargets))
		for _, to := range a.spamTargets {
			arena = a.sendNew(arena, to, a.rng.Intn(a.n)+1)
		}
	default:
		return nil
	}
	return a.outBuf
}

// rushSplit reads the previewed current-round honest votes (tagged with
// this round's counter) and sends the least common value to the first
// half of the committee and the most common to the rest.
func (a *ByzAttacker) rushSplit(round int, inbox []sim.Message) {
	pc := round - 2
	counts := make(map[consensus.Value]int)
	for _, msg := range inbox {
		s, ok := msg.Payload.(SubPayload)
		if !ok || s.PC != pc {
			continue
		}
		counts[s.Val]++
	}
	if len(counts) == 0 {
		return
	}
	var most, least consensus.Value
	mostC, leastC := -1, 1<<30
	for v, c := range counts {
		if c > mostC || (c == mostC && consensus.Less(v, most)) {
			most, mostC = v, c
		}
		if c < leastC || (c == leastC && consensus.Less(v, least)) {
			least, leastC = v, c
		}
	}
	valueBits := 61 + bitsFor(a.n)
	for idx, to := range a.memberLinks {
		val := most
		if idx < len(a.memberLinks)/2 {
			val = least
		}
		a.outBuf = append(a.outBuf, sim.Message{From: a.idx, To: to, Payload: SubPayload{
			PC: pc, Val: val, ValueBits: valueBits, PCBits: bitsFor(pc + 1),
		}})
	}
}

// equivocateSub sends a different random subprotocol value to each target
// (payloads genuinely differ per recipient, so there is nothing to share;
// only the outbox slice is pooled).
func (a *ByzAttacker) equivocateSub(round int, targets []int) {
	pc := round - 2
	valueBits := 61 + bitsFor(a.n)
	for _, to := range targets {
		val := consensus.Value{Hi: a.rng.Uint64() >> 3, Lo: uint64(a.rng.Intn(a.n + 1))}
		if a.rng.Intn(2) == 0 {
			val = consensus.Bit(a.rng.Intn(2) == 0) // plausible binary vote
		}
		a.outBuf = append(a.outBuf, sim.Message{From: a.idx, To: to, Payload: SubPayload{
			PC: pc, Val: val, ValueBits: valueBits, PCBits: bitsFor(pc + 1),
		}})
	}
}

// fakeNew occasionally sends fabricated NEW messages to random nodes,
// probing the decision threshold.
func (a *ByzAttacker) fakeNew(round int) {
	if round%3 != 0 {
		return
	}
	arena := a.newArena(round, 4)
	for k := 0; k < 4; k++ {
		to := a.rng.Intn(a.n)
		arena = a.sendNew(arena, to, a.rng.Intn(a.n)+1)
	}
}

// newArena returns round's emptied NEW arena with room for size
// payloads, so appending them never moves payloads already sent.
func (a *ByzAttacker) newArena(round, size int) []PackedNew {
	arena := &a.newArenas[round&1]
	if cap(*arena) < size {
		*arena = make([]PackedNew, 0, size)
	}
	return (*arena)[:0]
}

// sendNew appends a NEW claiming name id, addressed to link to, to the
// outbox; the payload is encoded into arena exactly as a correct
// member's distribution would be (id ≤ n ≤ N fits the codec's width).
func (a *ByzAttacker) sendNew(arena []PackedNew, to, id int) []PackedNew {
	arena = append(arena, a.codec.encodeNew(NewPayload{NewID: id}))
	a.outBuf = append(a.outBuf, sim.Message{From: a.idx, To: to, Payload: &arena[len(arena)-1]})
	return arena
}
