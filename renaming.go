// Package renaming is a reproduction of "Robust and Scalable Renaming
// with Subquadratic Bits" (Bai, Fu, Wang, Wang, Zheng; PODC 2025): strong
// renaming algorithms for synchronous message-passing systems whose
// communication cost scales with the actual number of failures.
//
// The package exposes two algorithms on a deterministic synchronous
// network simulator:
//
//   - RunCrash executes the crash-resilient algorithm of Section 2
//     (always correct, always O(log n) rounds, O~((f+1)·n) messages);
//   - RunByzantine executes the Byzantine-resilient, order-preserving
//     algorithm of Section 3 (O~(max{f,1}) rounds, O~(f+n) messages,
//     assuming shared randomness and authenticated messages).
//
// Baseline comparators from the paper's Table 1 and the Theorem 1.4
// lower-bound experiment are exposed through RunBaseline and the
// internal/lowerbound package. Every execution is reproducible from its
// Spec (a single seed drives all randomness) and returns a Result with
// the full communication metrics the paper's complexity claims are about.
package renaming

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"renaming/internal/sim"
	"renaming/internal/trace"
)

// Result summarizes one renaming execution.
type Result struct {
	// NewIDByLink maps link index → decided new identity; -1 marks nodes
	// that crashed, are Byzantine, or did not decide.
	NewIDByLink []int
	// Unique reports whether all decided identities are distinct and lie
	// in [1, n] — the strong renaming guarantee.
	Unique bool
	// OrderPreserving reports whether the decided identities preserve
	// the relative order of the original identities.
	OrderPreserving bool
	// Crashes is the actual number of crash failures (the paper's f in
	// the crash setting).
	Crashes int
	// Byzantine is the number of Byzantine nodes (the paper's f in the
	// Byzantine setting).
	Byzantine int

	// Rounds, Messages, Bits, MaxMessageBits mirror the simulator's
	// metrics. HonestMessages/HonestBits exclude Byzantine traffic.
	Rounds         int
	Messages       int64
	Bits           int64
	HonestMessages int64
	HonestBits     int64
	MaxMessageBits int
	// MaxNodeSent and MaxNodeReceived expose the per-link load skew:
	// committee members bear Θ(n) traffic while plain nodes exchange
	// only O~(committee) messages.
	MaxNodeSent     int64
	MaxNodeReceived int64
	// OversizeMessages counts honest messages exceeding the configured
	// CONGEST per-message budget (0 when no budget was set).
	OversizeMessages int64
	// PerKind breaks the message count down by payload kind.
	PerKind map[string]int64

	// CommitteeSize is the committee view size (Byzantine algorithm) or
	// the number of nodes ever elected (crash algorithm).
	CommitteeSize int
	// Iterations is the number of divide-and-conquer iterations the
	// Byzantine committee ran (Lemma 3.10 bounds it by 4·f·log N).
	Iterations int
	// AssumptionHolds reports whether the committee composition
	// satisfied the paper's requirement (fewer than one third Byzantine
	// members); when false the run is outside the guarantee envelope.
	AssumptionHolds bool

	// RoundStats is the per-round traffic profile; populated only when
	// the spec asked for it (Profile, or a non-nil Trace writer).
	RoundStats *RoundStats
}

// RoundStats summarizes the per-round traffic profile of a run — the
// telemetry the experiment runner records so a sweep artifact carries
// the traffic shape, not just the totals. Message counts use
// sent-on-the-wire semantics: a message to an already-crashed recipient
// still counts, because the sender paid for it. Its fields are documented
// on trace.Summary.
type RoundStats = trace.Summary

// fill computes Unique/OrderPreserving from the decided identities.
func (r *Result) fill(ids []int) {
	n := len(ids)
	r.Unique = true
	r.OrderPreserving = true
	type pair struct{ oldID, newID int }
	var pairs []pair
	seen := make(map[int]bool)
	for link, newID := range r.NewIDByLink {
		if newID < 0 {
			continue
		}
		if newID < 1 || newID > n || seen[newID] {
			r.Unique = false
		}
		seen[newID] = true
		pairs = append(pairs, pair{oldID: ids[link], newID: newID})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].oldID < pairs[b].oldID })
	for i := 1; i < len(pairs); i++ {
		if pairs[i].newID <= pairs[i-1].newID {
			r.OrderPreserving = false
		}
	}
}

// AdversaryLinks places f adversarial (Byzantine / corrupt) links among
// n nodes, spread by the stride 3i+1 so adversaries land in different
// thirds of the ring rather than clustering at the low indices.
//
// Unlike the naive (3i+1) mod n enumeration, placement is deduplicated:
// when the stride wraps onto an already-chosen link (which happens
// whenever n ≡ 0 (mod 3) and f > n/3, because the stride then only ever
// visits residues ≡ 1 mod 3), the remaining adversaries fill the lowest
// unused links instead of silently re-corrupting the same ones. The
// result always contains exactly f distinct links; whenever the naive
// enumeration was collision-free the two placements are identical, so
// historical sweep outputs are unchanged.
func AdversaryLinks(n, f int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("renaming: adversary placement needs n > 0, got n=%d", n)
	}
	if f < 0 || f >= n {
		return nil, fmt.Errorf("renaming: adversary count f=%d out of range [0, n) for n=%d", f, n)
	}
	links := make([]int, 0, f)
	used := make([]bool, n)
	for i := 0; i < n && len(links) < f; i++ {
		link := (3*i + 1) % n
		if !used[link] {
			used[link] = true
			links = append(links, link)
		}
	}
	// Stride exhausted (n ≡ 0 mod 3 visits only n/3 links): fill the
	// lowest unused links. f < n guarantees enough remain.
	for link := 0; len(links) < f; link++ {
		if !used[link] {
			used[link] = true
			links = append(links, link)
		}
	}
	return links, nil
}

// IDPattern selects how original identities are spread over [N].
type IDPattern int

const (
	// IDsRandom draws n distinct identities uniformly from [1, N].
	IDsRandom IDPattern = iota + 1
	// IDsEven spreads identities evenly across [1, N].
	IDsEven
	// IDsClustered packs identities into [1, n] plus one far outlier,
	// the adversarial profile for divide-and-conquer depth.
	IDsClustered
)

// GenerateIDs produces n distinct original identities in [1, bigN]
// following the pattern, deterministically in the seed.
func GenerateIDs(n, bigN int, pattern IDPattern, seed int64) ([]int, error) {
	if n <= 0 || bigN < n {
		return nil, fmt.Errorf("renaming: invalid n=%d, N=%d", n, bigN)
	}
	switch pattern {
	case IDsEven:
		ids := make([]int, n)
		gap := bigN / n
		for i := range ids {
			ids[i] = i*gap + 1
		}
		return ids, nil
	case IDsClustered:
		ids := make([]int, n)
		for i := 0; i < n-1; i++ {
			ids[i] = i + 1
		}
		ids[n-1] = bigN
		return ids, nil
	case IDsRandom:
		rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, 0x696473))) // "ids"
		seen := make(map[int]bool, n)
		ids := make([]int, 0, n)
		for len(ids) < n {
			id := rng.Intn(bigN) + 1
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		return ids, nil
	default:
		return nil, errors.New("renaming: unknown id pattern")
	}
}
