package sim

import (
	"fmt"
	"math/rand"
	"sync"
)

// SplitMix64 advances the SplitMix64 generator state once and returns the
// next output. It is used to derive statistically independent sub-seeds
// (per-node PRNGs, adversary PRNG, shared-randomness beacon) from a single
// run seed so that an entire execution is reproducible from one integer.
func SplitMix64(state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically mixes a run seed with a stream label. Distinct
// labels yield independent-looking streams for the same run seed.
func DeriveSeed(seed int64, label uint64) int64 {
	mixed := SplitMix64(uint64(seed) ^ SplitMix64(label))
	return int64(mixed)
}

// NewRand returns a deterministic PRNG for the given run seed and stream
// label. Every stochastic component of an execution draws from its own
// labelled stream, so adding randomness to one component never perturbs
// another.
func NewRand(seed int64, label uint64) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(seed, label)))
}

// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register with tap 273. Seeding fills word i from the Lehmer
// sequence x_j = 48271^j·s mod 2^31−1 of the normalized seed s — the
// three values x_{21+3i}, x_{22+3i}, x_{23+3i}, shifted and XORed — and
// XORs in a fixed table. Output k is vec[333−k] + vec[606−k], written
// back to vec[333−k]; the tap reads a word written by an earlier output
// only from k = 273 on, so the first 273 outputs are closed-form in the
// seeded words.
const (
	lfLen      = 607
	lfTap      = 273
	lehmerMod  = 1<<31 - 1
	lehmerMul  = 48271
	lehmerZero = 89482311 // math/rand's stand-in for a seed ≡ 0
)

// lazyTables holds what the closed form needs, built once at the first
// draw: pow[i][t] = 48271^(21+3i+t) mod 2^31−1, and math/rand's fixed
// seeding table, recovered from the outputs of rand.NewSource(1) rather
// than copied.
var lazyTables struct {
	once   sync.Once
	pow    [lfLen][3]uint64
	cooked [lfLen]uint64
}

func buildLazyTables() {
	t := &lazyTables
	x := uint64(1)
	for j := 0; j < 21; j++ {
		x = x * lehmerMul % lehmerMod
	}
	for i := range t.pow {
		for k := range t.pow[i] {
			t.pow[i][k] = x
			x = x * lehmerMul % lehmerMod
		}
	}
	// Run the recurrence out_k = out_{k−607} + out_{k−273} backwards over
	// the first 607 outputs of seed 1. prev[m] = out_{−m}, m = 1..607, is
	// the seeded word vec[(m+333) mod 607]; the first loop yields
	// m = 1..334, which the second needs for m = 335..607.
	src := rand.NewSource(1).(rand.Source64)
	var out [lfLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	var prev [lfLen + 1]uint64
	for k := lfLen - 1; k >= lfTap; k-- {
		prev[lfLen-k] = out[k] - out[k-lfTap]
	}
	for k := lfTap - 1; k >= 0; k-- {
		prev[lfLen-k] = out[k] - prev[lfTap-k]
	}
	for m := 1; m <= lfLen; m++ {
		i := (m + lfLen - lfTap - 1) % lfLen
		t.cooked[i] = prev[m] ^ lehmerWord(i, 1)
	}
}

// lehmerWord is word i of the register math/rand seeds from normalized
// seed s (in [1, 2^31−2]), before the fixed table is XORed in.
func lehmerWord(i int, s uint64) uint64 {
	p := &lazyTables.pow[i]
	return (p[0]*s%lehmerMod)<<40 ^ (p[1]*s%lehmerMod)<<20 ^ p[2]*s%lehmerMod
}

// LazyRand is a memory-sparse stand-in for a per-node
// rand.New(rand.NewSource(DeriveSeed(seed, label))): it produces the
// bit-identical Float64 stream while holding only the derived seed and a
// draw counter (16 bytes) instead of the source's ~4.9 KiB
// lagged-Fibonacci table. At n = 2^20 nodes that retires ~5 GiB of
// resident generator state.
//
// Each raw output is computed in closed form from the seed: six modular
// multiplications by precomputed powers and two table reads, O(1) per
// draw. The closed form covers a stream's first 273 raw outputs, and a
// 274th panics. That bound serves the crash algorithm, the one caller: a
// node draws once at activation and at most once per phase, and never
// after it is elected, so at most 1 + 3⌈log₂ n⌉ ≤ 190 times for any int
// n. (Float64 takes a second raw output only when one rounds to 1.0, with
// probability 2^-53.)
//
// The zero value is invalid; construct with NewLazyRand. Not safe for
// concurrent use (like rand.Rand), which matches the engine contract
// that a node's state is only touched by its own Step.
type LazyRand struct {
	seed  int64
	draws uint32
}

// NewLazyRand returns the lazy equivalent of NewRand(seed, label).
func NewLazyRand(seed int64, label uint64) LazyRand {
	return LazyRand{seed: DeriveSeed(seed, label)}
}

// Float64 returns the next value of the underlying stream, bit-identical
// to NewRand(seed, label).Float64() at the same draw position — including
// math/rand's resample-on-1.0 loop, which is why the draw counter tracks
// raw Int63 outputs rather than returned values.
func (r *LazyRand) Float64() float64 {
	for {
		if f := float64(r.int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// int63 returns the stream's next raw Int63 output, or panics past the
// closed-form prefix.
func (r *LazyRand) int63() int64 {
	k := r.draws
	if k >= lfTap {
		panic(fmt.Sprintf("sim: LazyRand draw %d is past its closed form (%d raw draws)", k+1, lfTap))
	}
	r.draws++
	lazyTables.once.Do(buildLazyTables)
	s := r.seed % lehmerMod
	if s < 0 {
		s += lehmerMod
	}
	if s == 0 {
		s = lehmerZero
	}
	feed, tap := lfLen-lfTap-1-int(k), lfLen-1-int(k)
	t := &lazyTables
	x := (lehmerWord(feed, uint64(s)) ^ t.cooked[feed]) + (lehmerWord(tap, uint64(s)) ^ t.cooked[tap])
	return int64(x & (1<<63 - 1))
}
