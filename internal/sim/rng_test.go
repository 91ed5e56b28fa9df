package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestLazyRandMatchesNewRand locks the LazyRand contract: the Float64
// stream is bit-identical to NewRand's for the same (seed, label) at
// each of the 273 draw positions the closed form covers, across many
// labels and negative, zero and large seeds, and the next draw panics
// instead of returning a wrong value. Raw seeds set in the struct reach
// the normalizations math/rand applies before seeding: a seed ≡ 0 mod
// 2^31−1 (replaced by 89482311), negative seeds, and the int64 extremes.
func TestLazyRandMatchesNewRand(t *testing.T) {
	check := func(name string, ref *rand.Rand, lazy LazyRand) {
		t.Helper()
		for i := 0; i < lfTap; i++ {
			want := ref.Float64()
			got := lazy.Float64()
			if got != want {
				t.Fatalf("%s draw %d: LazyRand %v != math/rand %v", name, i, got, want)
			}
		}
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: draw %d past the closed form did not panic", name, lfTap)
			}
		}()
		lazy.Float64()
	}
	for _, seed := range []int64{42, 0, -1, -7919, math.MaxInt64, math.MinInt64} {
		for _, label := range []uint64{0, 1, 0x6372617368 << 16, 0x6372617368<<16 | 12345, ^uint64(0)} {
			check(fmt.Sprintf("seed %d label %#x", seed, label), NewRand(seed, label), NewLazyRand(seed, label))
		}
	}
	const m = 1<<31 - 1
	for _, seed := range []int64{0, m, -m, 5 * m, 1, -1, m - 1, m + 1, 89482311, math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
		check(fmt.Sprintf("raw seed %d", seed), rand.New(rand.NewSource(seed)), LazyRand{seed: seed})
	}
}

// TestLazyRandInterleaved checks that independent LazyRand values sharing
// the closed form's tables do not perturb each other: interleaved draws
// from two streams match two independent reference generators.
func TestLazyRandInterleaved(t *testing.T) {
	refA, refB := NewRand(7, 100), NewRand(7, 200)
	lazyA, lazyB := NewLazyRand(7, 100), NewLazyRand(7, 200)
	for i := 0; i < lfTap; i++ {
		if got, want := lazyA.Float64(), refA.Float64(); got != want {
			t.Fatalf("stream A draw %d: %v != %v", i, got, want)
		}
		if i%3 == 0 {
			if got, want := lazyB.Float64(), refB.Float64(); got != want {
				t.Fatalf("stream B draw %d: %v != %v", i, got, want)
			}
		}
	}
}
