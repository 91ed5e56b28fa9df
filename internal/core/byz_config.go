package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"renaming/internal/sharedrand"
	"renaming/internal/sim"
)

// ElectionMode selects how the committee candidate pool over [N] is
// drawn.
type ElectionMode int

const (
	// ElectionSharedPool draws the pool from the shared-randomness
	// beacon — the paper's assumption: the static adversary corrupts
	// nodes before the shared bits are revealed, so it cannot target the
	// committee.
	ElectionSharedPool ElectionMode = iota
	// ElectionSortition implements the Section 3.2 discussion of
	// dropping the shared-randomness assumption: an identity is a
	// candidate iff its public hash falls below the pool probability
	// cutoff (cryptographic sortition). No shared bits are needed — the
	// pool is a deterministic public function of [N] — but the guarantee
	// weakens: the adversary must be oblivious to the identity
	// assignment, because a corruptor who chooses identities after
	// seeing the hash function could pack the pool.
	ElectionSortition
)

// sortitionSalt is the public constant of the sortition hash. Being
// public is the point: no shared randomness is consumed.
const sortitionSalt = 0x736f7274697469 // "sortiti"

// epsilon is the paper's ε₀ (resilience margin): the Byzantine bound is
// f < (1/3 − ε₀)·n, and ε₀ enters the paper's pool probability p₀. The
// constant is typed so that every expression over it rounds to float64
// step by step, exactly like run-time arithmetic.
const epsilon float64 = 0.1

// ByzConfig parameterizes the Byzantine-resilient renaming algorithm.
type ByzConfig struct {
	// N is the size of the original namespace [N].
	N int
	// IDs maps link index → original identity, unique values in [1, N].
	IDs []int
	// Seed drives both the private randomness and (via a derived label)
	// the shared-randomness beacon; Byzantine nodes see the beacon too,
	// exactly as in the paper (shared random bits are public).
	Seed int64
	// PoolProb overrides the paper's p₀ = 8·log n/((1−3ε₀)·ε₀²·n) for
	// the candidate-pool sampling over [N]. The paper's constant exceeds
	// 1 at laptop scale, making everybody a committee member; scaling it
	// down lets experiments exercise small committees. 0 keeps the
	// paper's formula (clamped to 1). Values above 1 clamp to 1, since
	// the 20/n-style pools callers pass exceed 1 at small n; negative
	// and NaN values are errors.
	PoolProb float64
	// Election selects the committee-election mechanism (shared-
	// randomness pool by default, public-hash sortition as the
	// Section 3.2 alternative).
	Election ElectionMode
	// SplitAlways is the A2 ablation: skip the fingerprint consensus
	// entirely and recurse straight down to single-bit segments, running
	// binary consensus on each of the N bits — the naive alternative the
	// divide-and-conquer replaces. Expect Θ(N) iterations instead of
	// O(f·log N).
	SplitAlways bool

	// pre carries state derived once per config (see Precompute). The
	// zero value is valid: constructors compute it on demand.
	pre *byzPrecomputed
}

// byzPrecomputed is derived state shared by every node built from one
// config, so an n-node network pays the O(N) pool derivation and the
// O(n log n) identity sort once instead of n times.
type byzPrecomputed struct {
	pool      []int
	poolSet   []bool // poolSet[id] reports id ∈ pool, sized N+1
	linksByID []int  // every link, in ascending order of its identity
}

// Precompute returns a copy of cfg carrying the shared candidate pool
// and its membership bitset. Calling it is optional — constructors fall
// back to deriving the state per node — but harnesses building many
// nodes from one config should call it once up front.
func (cfg ByzConfig) Precompute() ByzConfig {
	if cfg.pre != nil {
		return cfg
	}
	pool := cfg.Pool()
	poolSet := make([]bool, cfg.N+1)
	for _, id := range pool {
		if id >= 1 && id <= cfg.N {
			poolSet[id] = true
		}
	}
	linksByID := make([]int, len(cfg.IDs))
	for link := range linksByID {
		linksByID[link] = link
	}
	slices.SortFunc(linksByID, func(a, b int) int { return cmp.Compare(cfg.IDs[a], cfg.IDs[b]) })
	cfg.pre = &byzPrecomputed{pool: pool, poolSet: poolSet, linksByID: linksByID}
	return cfg
}

// poolProb returns the probability with which each identity of [N] joins
// the shared candidate pool.
func (cfg ByzConfig) poolProb() float64 {
	if cfg.PoolProb > 0 {
		return math.Min(1, cfg.PoolProb)
	}
	n := float64(len(cfg.IDs))
	p := 8 * math.Log2(math.Max(2, n)) / ((1 - 3*epsilon) * epsilon * epsilon * n)
	return math.Min(1, p)
}

// MaxByzantine returns the largest Byzantine count the configuration
// tolerates: the largest f with f < (1/3 − ε₀)·n.
func (cfg ByzConfig) MaxByzantine() int {
	n := float64(len(cfg.IDs))
	bound := (1.0/3 - epsilon) * n
	f := int(math.Ceil(bound)) - 1
	if f < 0 {
		f = 0
	}
	return f
}

// Validate checks the configuration.
func (cfg ByzConfig) Validate() error {
	n := len(cfg.IDs)
	if n == 0 {
		return fmt.Errorf("core: no nodes configured")
	}
	if cfg.N < n {
		return fmt.Errorf("core: namespace N=%d smaller than n=%d", cfg.N, n)
	}
	if p := cfg.PoolProb; math.IsNaN(p) || p < 0 {
		return fmt.Errorf("core: pool probability %v is negative or NaN", p)
	}
	seen := make(map[int]bool, n)
	for i, id := range cfg.IDs {
		if id < 1 || id > cfg.N {
			return fmt.Errorf("core: node %d has identity %d outside [1,%d]", i, id, cfg.N)
		}
		if seen[id] {
			return fmt.Errorf("core: duplicate identity %d", id)
		}
		seen[id] = true
	}
	return nil
}

// Beacon returns the execution's shared-randomness beacon.
func (cfg ByzConfig) Beacon() *sharedrand.Beacon {
	return sharedrand.NewBeacon(sim.DeriveSeed(cfg.Seed, 0x626561636f6e)) // "beacon"
}

// Pool returns the candidate pool over [N]: shared-randomness sampling
// by default, public-hash sortition when Election selects it. Either way
// every correct node computes the identical pool.
func (cfg ByzConfig) Pool() []int {
	p := cfg.poolProb()
	if cfg.Election != ElectionSortition {
		return cfg.Beacon().CandidatePool(cfg.N, p)
	}
	cutoff := uint64(p * float64(math.MaxUint64))
	if p >= 1 {
		cutoff = math.MaxUint64
	}
	var pool []int
	for id := 1; id <= cfg.N; id++ {
		if sim.SplitMix64(sortitionSalt^uint64(id)) < cutoff {
			pool = append(pool, id)
		}
	}
	return pool
}

// VerifyIdentity models message authentication: it reports whether the
// node on the given link really owns the claimed identity (in a deployed
// system this is a signature check against a certificate chain). Honest
// logic must use it only for verification, never for discovery.
func (cfg ByzConfig) VerifyIdentity(link, claimedID int) bool {
	return link >= 0 && link < len(cfg.IDs) && cfg.IDs[link] == claimedID
}
