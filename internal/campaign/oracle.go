package campaign

import (
	"fmt"
	"sort"
	"sync"

	"renaming"
)

// Invariant codes, stable strings recorded in telemetry and artifacts.
const (
	// InvUniqueness: two correct nodes decided the same new name, or the
	// run's own Unique verdict disagrees with the oracle's recomputation.
	InvUniqueness = "uniqueness"
	// InvNamespace: a decided name lies outside the tight target
	// namespace [1, n] (strong renaming).
	InvNamespace = "namespace"
	// InvUndecided: a correct, surviving node failed to decide.
	InvUndecided = "undecided"
	// InvOrder: decided names do not preserve the order of original
	// identities (Theorem 1.3's order-preservation guarantee).
	InvOrder = "order"
	// InvRoundCeiling: the execution exceeded the deterministic round
	// bound (Theorem 1.2: 9·⌈log₂ n⌉+1 rounds in this simulator's
	// 3-rounds-per-phase schedule).
	InvRoundCeiling = "round-ceiling"
	// InvMessageCeiling: honest messages exceeded the deterministic
	// Θ(n²·log n) cap (Theorem 1.2), with the repo's measured worst-case
	// constant (EXPERIMENTS.md E4).
	InvMessageCeiling = "message-ceiling"
	// InvMessageFloor: honest messages fell below the Ω(n) lower bound
	// of Theorem 1.4 (n − f survivors must all communicate).
	InvMessageFloor = "message-floor"
	// InvIterationCeiling: the Byzantine divide-and-conquer ran more
	// iterations than Lemma 3.10 allows.
	InvIterationCeiling = "iteration-ceiling"

	// InvRecycle: the long-lived service handed out a name that was
	// still live (double allocation) or released a name it never
	// granted to that client.
	InvRecycle = "recycle"
	// InvConservation: live names plus free names stopped summing to the
	// service capacity, or an epoch's join accounting does not add up —
	// a name leaked or was duplicated somewhere.
	InvConservation = "conservation"
	// InvRollback: an aborted epoch left a visible state change behind
	// (the checkpoint rollback contract).
	InvRollback = "rollback"
)

// Violation is one invariant breach, carrying everything needed to
// reproduce it: the execution's seed and its full strategy.
type Violation struct {
	// Exec is the execution index within the campaign.
	Exec int `json:"exec"`
	// Seed is the execution seed; replaying it with the strategy
	// reproduces the violation bit-for-bit.
	Seed int64 `json:"seed"`
	// Epoch keys service violations to the epoch they surfaced in
	// (always 0 for one-shot campaigns).
	Epoch int `json:"epoch,omitempty"`
	// Invariant is one of the Inv* codes.
	Invariant string `json:"invariant"`
	// Detail is a human-readable account of the breach.
	Detail string `json:"detail"`
	// Strategy is the replayable adversary strategy.
	Strategy Strategy `json:"strategy"`
}

// Expectation is the envelope an execution is checked against. The zero
// value checks nothing; use CrashExpectation / ByzantineExpectation for
// the theorem-derived defaults.
type Expectation struct {
	// RequireUnique demands strong renaming: distinct names in [1, n]
	// and every correct survivor decided.
	RequireUnique bool
	// RequireOrder demands order preservation (Theorem 1.3).
	RequireOrder bool
	// OnlyWhenAssumptionHolds gates RequireUnique/RequireOrder on the
	// run staying inside its theorem's hypothesis (Byzantine committee
	// composition) — outside it the theorems promise nothing.
	OnlyWhenAssumptionHolds bool
	// RoundCeiling bounds the execution's rounds; 0 disables.
	RoundCeiling int
	// MessageCeiling bounds honest messages; 0 disables.
	MessageCeiling int64
	// CheckMessageFloor enables the Theorem 1.4 Ω(n) check: honest
	// messages ≥ number of surviving correct nodes, once at least two
	// survive (a lone correct node renames itself without a message).
	CheckMessageFloor bool
	// IterationCeiling bounds the Byzantine divide-and-conquer
	// iterations (Lemma 3.10); 0 disables.
	IterationCeiling int
}

// log2Ceil returns ⌈log₂ n⌉ (0 for n ≤ 1).
func log2Ceil(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// CrashRoundCeiling is Theorem 1.2's deterministic round bound in this
// simulator's schedule: 9·⌈log₂ n⌉ + 1 (three rounds per phase,
// 3·⌈log₂ n⌉ phases, one response round) — the bound EXPERIMENTS.md E2
// measures the algorithm sitting exactly on.
func CrashRoundCeiling(n int) int { return 9*log2Ceil(n) + 1 }

// CrashMessageCeiling is the deterministic Θ(n²·log n) cap with the
// repo's measured worst-case constant 9 (EXPERIMENTS.md E4: paper
// constants, committee = everyone; scaled committees stay below 1.5).
func CrashMessageCeiling(n int) int64 {
	return int64(9 * float64(n) * float64(n) * float64(max(1, log2Ceil(n))))
}

// CrashExpectation is the Theorem 1.2 + 1.4 envelope for the crash
// algorithm: always unique, always within the deterministic round and
// message ceilings, never below the Ω(n) message floor. The crash
// algorithm carries no order guarantee (Table 1 "-").
func CrashExpectation(n int) Expectation {
	return Expectation{
		RequireUnique:     true,
		RoundCeiling:      CrashRoundCeiling(n),
		MessageCeiling:    CrashMessageCeiling(n),
		CheckMessageFloor: true,
	}
}

// ByzIterationCeiling is Lemma 3.10's divide-and-conquer bound with the
// implementation's slack for the f=0 bootstrap: 4·(f+1)·(⌈log₂ N⌉+1)+8,
// matching the round budget RunByzantine provisions.
func ByzIterationCeiling(bigN, f int) int {
	return 4*(f+1)*(log2Ceil(bigN)+1) + 8
}

// ByzantineExpectation is the Theorem 1.3 envelope: unique AND
// order-preserving whenever the committee assumption holds, iterations
// within Lemma 3.10.
func ByzantineExpectation(bigN, f int) Expectation {
	return Expectation{
		RequireUnique:           true,
		RequireOrder:            true,
		OnlyWhenAssumptionHolds: true,
		IterationCeiling:        ByzIterationCeiling(bigN, f),
	}
}

// Oracle checks executions against an expectation. The zero Oracle
// checks nothing.
type Oracle struct {
	Expect Expectation
}

// oracleScratch is the per-Check recomputation scratch, pooled because
// the campaign driver calls Check concurrently from its runner workers:
// an epoch-stamped decided-name table (no per-execution map fill/clear)
// plus the order-recheck pair buffer. A 500-execution campaign reuses a
// handful of these instead of allocating n-entry maps 500 times.
type oracleScratch struct {
	seenLink  []int32 // newID in [0, n] → first/latest link, epoch-gated
	seenStamp []uint32
	epoch     uint32
	overflow  map[int]int // decided names outside [0, n] (violations only)
	pairs     []orderPair
}

var oracleScratchPool = sync.Pool{New: func() any { return new(oracleScratch) }}

// reset prepares the scratch for one execution over target namespace
// [1, n]; bumping the epoch invalidates every previous stamp in O(1).
func (s *oracleScratch) reset(n int) {
	if cap(s.seenLink) < n+1 {
		s.seenLink = make([]int32, n+1)
		s.seenStamp = make([]uint32, n+1)
		s.epoch = 0
	}
	s.seenLink = s.seenLink[:n+1]
	s.seenStamp = s.seenStamp[:n+1]
	s.epoch++
	if s.epoch == 0 { // stamp wrap: old entries would look current
		clear(s.seenStamp)
		s.epoch = 1
	}
	if s.overflow != nil {
		clear(s.overflow)
	}
}

// record notes that link decided newID and returns the previously
// recorded link for the same name (dup=true), overwriting it — exactly
// the semantics of the map this replaces, including names outside the
// namespace (tracked in the overflow map so duplicate out-of-range
// decisions still surface as uniqueness breaches).
func (s *oracleScratch) record(newID, link int) (prev int, dup bool) {
	if newID >= 0 && newID < len(s.seenLink) {
		if s.seenStamp[newID] == s.epoch {
			prev = int(s.seenLink[newID])
			s.seenLink[newID] = int32(link)
			return prev, true
		}
		s.seenStamp[newID] = s.epoch
		s.seenLink[newID] = int32(link)
		return 0, false
	}
	if s.overflow == nil {
		s.overflow = make(map[int]int)
	}
	prev, dup = s.overflow[newID]
	s.overflow[newID] = link
	return prev, dup
}

// Check verifies one execution result against the expectation and
// returns the violations found (Invariant and Detail populated; the
// campaign driver fills Exec/Seed/Strategy). ids are the original
// identities per link, needed to recheck order preservation
// independently of the result's own verdict.
func (o Oracle) Check(n int, ids []int, res *renaming.Result) []Violation {
	var out []Violation
	add := func(invariant, format string, args ...any) {
		out = append(out, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}
	guaranteed := !o.Expect.OnlyWhenAssumptionHolds || res.AssumptionHolds

	scratch := oracleScratchPool.Get().(*oracleScratch)
	defer oracleScratchPool.Put(scratch)

	if o.Expect.RequireUnique && guaranteed {
		// Recompute distinctness and namespace tightness from the raw
		// decisions instead of trusting res.Unique; then cross-check the
		// two verdicts so a bookkeeping bug in either layer surfaces.
		scratch.reset(n)
		recomputedUnique := true
		decided := 0
		for link, newID := range res.NewIDByLink {
			if newID < 0 {
				continue
			}
			decided++
			if newID < 1 || newID > n {
				recomputedUnique = false
				add(InvNamespace, "link %d decided %d outside [1, %d]", link, newID, n)
			}
			if prev, dup := scratch.record(newID, link); dup {
				recomputedUnique = false
				add(InvUniqueness, "links %d and %d both decided %d", prev, link, newID)
			}
		}
		faulty := res.Crashes + res.Byzantine
		if decided < n-faulty {
			recomputedUnique = false
			add(InvUndecided, "%d of %d correct surviving nodes decided", decided, n-faulty)
		}
		if recomputedUnique != res.Unique {
			add(InvUniqueness, "result reports unique=%v but oracle recomputed %v", res.Unique, recomputedUnique)
		}
	}
	if o.Expect.RequireOrder && guaranteed {
		var bad string
		var breached bool
		scratch.pairs, bad, breached = orderBreach(ids, res.NewIDByLink, scratch.pairs)
		if breached {
			add(InvOrder, "%s", bad)
		}
	}
	if c := o.Expect.RoundCeiling; c > 0 && res.Rounds > c {
		add(InvRoundCeiling, "rounds %d exceed the deterministic bound %d", res.Rounds, c)
	}
	if c := o.Expect.MessageCeiling; c > 0 && res.HonestMessages > c {
		add(InvMessageCeiling, "honest messages %d exceed the Θ(n²·log n) cap %d", res.HonestMessages, c)
	}
	if o.Expect.CheckMessageFloor {
		floor := int64(n - res.Crashes - res.Byzantine)
		if floor >= 2 && res.HonestMessages < floor {
			add(InvMessageFloor, "honest messages %d below the Ω(n) floor %d (Theorem 1.4)", res.HonestMessages, floor)
		}
	}
	if c := o.Expect.IterationCeiling; c > 0 && res.Iterations > c {
		add(InvIterationCeiling, "iterations %d exceed the Lemma 3.10 bound %d", res.Iterations, c)
	}
	return out
}

// orderPair is one decided link in the order recheck.
type orderPair struct{ link, oldID, newID int }

// orderBreach independently rechecks order preservation over the
// decided links: sorted by original identity, new names must strictly
// increase. pairs is caller-owned scratch, returned with any growth so
// it can be reused across executions.
func orderBreach(ids []int, newIDs []int, pairs []orderPair) ([]orderPair, string, bool) {
	if len(ids) != len(newIDs) {
		return pairs, fmt.Sprintf("oracle: %d ids for %d links", len(ids), len(newIDs)), true
	}
	pairs = pairs[:0]
	for link, newID := range newIDs {
		if newID >= 0 {
			pairs = append(pairs, orderPair{link: link, oldID: ids[link], newID: newID})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].oldID < pairs[b].oldID })
	for i := 1; i < len(pairs); i++ {
		a, b := pairs[i-1], pairs[i]
		if b.newID <= a.newID {
			return pairs, fmt.Sprintf("links %d (old %d → new %d) and %d (old %d → new %d) swap order",
				a.link, a.oldID, a.newID, b.link, b.oldID, b.newID), true
		}
	}
	return pairs, "", false
}

// Codes compresses violations to their invariant codes (deduplicated,
// first-occurrence order) — the short form recorded in runner metrics.
func Codes(violations []Violation) []string {
	var codes []string
	seen := make(map[string]bool)
	for _, v := range violations {
		if !seen[v.Invariant] {
			seen[v.Invariant] = true
			codes = append(codes, v.Invariant)
		}
	}
	return codes
}
