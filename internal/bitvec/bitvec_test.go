package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, pos := range []int{1, 64, 65, 128, 130} {
		if v.Get(pos) {
			t.Fatalf("fresh vector has bit %d", pos)
		}
		v.Set(pos)
		if !v.Get(pos) {
			t.Fatalf("Set(%d) lost", pos)
		}
	}
	if v.Count() != 5 {
		t.Fatalf("Count = %d", v.Count())
	}
	v.Clear(64)
	if v.Get(64) || v.Count() != 4 {
		t.Fatal("Clear failed")
	}
}

func TestRankAndOnes(t *testing.T) {
	v := New(100)
	for _, pos := range []int{3, 10, 50, 99} {
		v.Set(pos)
	}
	cases := []struct{ pos, rank int }{
		{1, 0}, {3, 0}, {4, 1}, {10, 1}, {11, 2}, {50, 2}, {51, 3}, {99, 3}, {100, 4},
	}
	for _, c := range cases {
		if got := v.Rank(c.pos); got != c.rank {
			t.Errorf("Rank(%d) = %d, want %d", c.pos, got, c.rank)
		}
	}
}

func TestCountRangeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := New(300)
	ref := make([]bool, 301)
	for i := 0; i < 120; i++ {
		pos := rng.Intn(300) + 1
		v.Set(pos)
		ref[pos] = true
	}
	for trial := 0; trial < 500; trial++ {
		lo := rng.Intn(300) + 1
		hi := lo + rng.Intn(300-lo+1)
		want := 0
		for p := lo; p <= hi; p++ {
			if ref[p] {
				want++
			}
		}
		if got := v.CountRange(lo, hi); got != want {
			t.Fatalf("CountRange(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
}

// TestSegmentWordsAgainstNaive compares the word-shifting SegmentWords
// with a bit-by-bit reference over random lengths (including
// non-multiples of 64), densities and segments.
func TestSegmentWordsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(400) + 1
		v := New(n)
		ref := make([]bool, n+1)
		density := rng.Float64()
		for pos := 1; pos <= n; pos++ {
			if rng.Float64() < density {
				v.Set(pos)
				ref[pos] = true
			}
		}
		lo := rng.Intn(n) + 1
		hi := lo + rng.Intn(n-lo+1)
		want := make([]uint64, (hi-lo+1+63)/64)
		for i := 0; lo+i <= hi; i++ {
			if ref[lo+i] {
				want[i/64] |= 1 << uint(i%64)
			}
		}
		got := v.SegmentWords(lo, hi)
		if len(got) != len(want) {
			t.Fatalf("N=%d SegmentWords(%d,%d): %d words, want %d", n, lo, hi, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("N=%d SegmentWords(%d,%d) word %d = %x, want %x", n, lo, hi, k, got[k], want[k])
			}
		}
	}
}

func TestSegmentWordsNormalized(t *testing.T) {
	// Equal segments at different offsets must produce equal words.
	a, b := New(200), New(200)
	pattern := []int{1, 3, 4, 8, 63, 64, 65, 70}
	for _, off := range pattern {
		a.Set(10 + off)
		b.Set(97 + off)
	}
	wa := a.SegmentWords(11, 11+70)
	wb := b.SegmentWords(98, 98+70)
	if len(wa) != len(wb) {
		t.Fatalf("lengths differ: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("word %d differs: %x vs %x", i, wa[i], wb[i])
		}
	}
}

func TestReplaceRange(t *testing.T) {
	v := New(64)
	for p := 1; p <= 64; p++ {
		v.Set(p)
	}
	v.ReplaceRange(10, 30, 5)
	if got := v.CountRange(10, 30); got != 5 {
		t.Fatalf("segment count = %d", got)
	}
	if v.Count() != 64-21+5 {
		t.Fatalf("total = %d", v.Count())
	}
	// Bits outside the range untouched.
	if !v.Get(9) || !v.Get(31) {
		t.Fatal("neighbours clobbered")
	}
}

func TestPanicsOutOfRange(t *testing.T) {
	v := New(10)
	for _, fn := range []func(){
		func() { v.Get(0) },
		func() { v.Set(11) },
		func() { v.Rank(-1) },
		func() { v.ReplaceRange(1, 5, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestQuickRankCount: Rank(pos) + bit(pos..) identities against a naive
// reference model under random operations.
func TestQuickRankCount(t *testing.T) {
	prop := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		v := New(n)
		ref := make([]bool, n+1)
		ops := int(opsRaw)
		for i := 0; i < ops; i++ {
			pos := rng.Intn(n) + 1
			if rng.Intn(2) == 0 {
				v.Set(pos)
				ref[pos] = true
			} else {
				v.Clear(pos)
				ref[pos] = false
			}
		}
		total := 0
		for pos := 1; pos <= n; pos++ {
			if v.Rank(pos) != total {
				return false
			}
			if ref[pos] {
				total++
			}
			if v.Get(pos) != ref[pos] {
				return false
			}
		}
		return v.Count() == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
