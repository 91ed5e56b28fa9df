package bitvec

import (
	"fmt"
	"math/bits"
)

// Vector is a fixed-length bit vector over positions 1..N.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero vector over positions 1..n.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns N, the number of addressable positions.
func (v *Vector) Len() int { return v.n }

func (v *Vector) check(pos int) {
	if pos < 1 || pos > v.n {
		panic(fmt.Sprintf("bitvec: position %d out of range [1,%d]", pos, v.n))
	}
}

// Set sets position pos to 1.
func (v *Vector) Set(pos int) {
	v.check(pos)
	v.words[(pos-1)/64] |= 1 << uint((pos-1)%64)
}

// Clear sets position pos to 0.
func (v *Vector) Clear(pos int) {
	v.check(pos)
	v.words[(pos-1)/64] &^= 1 << uint((pos-1)%64)
}

// Get reports whether position pos is 1.
func (v *Vector) Get(pos int) bool {
	v.check(pos)
	return v.words[(pos-1)/64]&(1<<uint((pos-1)%64)) != 0
}

// Count returns the total number of ones.
func (v *Vector) Count() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// CountRange returns the number of ones in positions [lo, hi] inclusive.
func (v *Vector) CountRange(lo, hi int) int {
	if lo > hi {
		return 0
	}
	v.check(lo)
	v.check(hi)
	total := 0
	loIdx, hiIdx := (lo-1)/64, (hi-1)/64
	loOff, hiOff := uint((lo-1)%64), uint((hi-1)%64)
	if loIdx == hiIdx {
		mask := maskRange(loOff, hiOff)
		return bits.OnesCount64(v.words[loIdx] & mask)
	}
	total += bits.OnesCount64(v.words[loIdx] &^ ((1 << loOff) - 1))
	for i := loIdx + 1; i < hiIdx; i++ {
		total += bits.OnesCount64(v.words[i])
	}
	total += bits.OnesCount64(v.words[hiIdx] & maskThrough(hiOff))
	return total
}

// Rank returns the number of ones strictly before position pos — exactly
// the paper's "number of 1s in L_v that occur before position ID(u)",
// which (plus one) is the new identity assigned to the node at pos.
func (v *Vector) Rank(pos int) int {
	v.check(pos)
	if pos == 1 {
		return 0
	}
	return v.CountRange(1, pos-1)
}

// Ones returns the positions of all ones in ascending order.
func (v *Vector) Ones() []int {
	out := make([]int, 0, v.Count())
	for i, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*64+b+1)
			w &= w - 1
		}
	}
	return out
}

// OnesRange returns the positions of ones within [lo, hi] in ascending order.
func (v *Vector) OnesRange(lo, hi int) []int {
	if lo > hi {
		return nil
	}
	v.check(lo)
	v.check(hi)
	out := []int{}
	for _, pos := range v.Ones() {
		if pos < lo {
			continue
		}
		if pos > hi {
			break
		}
		out = append(out, pos)
	}
	return out
}

// SegmentWords returns the bits of positions [lo, hi] packed little-endian
// into fresh words, normalized so that equal segments at different offsets
// produce equal word slices — the input the fingerprint hash consumes.
func (v *Vector) SegmentWords(lo, hi int) []uint64 {
	if lo > hi {
		return nil
	}
	v.check(lo)
	v.check(hi)
	length := hi - lo + 1
	out := make([]uint64, (length+63)/64)
	// Word k of the segment is the 64 bits starting at global bit
	// lo-1+64k: the tail of one source word shifted down, joined with the
	// head of the next.
	w0, off := (lo-1)/64, uint((lo-1)%64)
	for k := range out {
		w := v.words[w0+k] >> off
		if off > 0 && w0+k+1 < len(v.words) {
			w |= v.words[w0+k+1] << (64 - off)
		}
		out[k] = w
	}
	if tail := uint(length % 64); tail > 0 {
		out[len(out)-1] &= (1 << tail) - 1
	}
	return out
}

// ReplaceRange overwrites positions [lo, hi] so that the segment contains
// exactly ones 1-bits, placed at the lowest positions of the range. This
// implements the paper's "replace L_v[l..r] with an arbitrary binary
// string that contains exactly cnt' ones" for dirty segments.
func (v *Vector) ReplaceRange(lo, hi, ones int) {
	if lo > hi {
		if ones != 0 {
			panic("bitvec: ReplaceRange with ones on empty range")
		}
		return
	}
	v.check(lo)
	v.check(hi)
	if ones < 0 || ones > hi-lo+1 {
		panic(fmt.Sprintf("bitvec: ReplaceRange ones=%d out of range for [%d,%d]", ones, lo, hi))
	}
	for pos := lo; pos <= hi; pos++ {
		if ones > 0 {
			v.Set(pos)
			ones--
		} else {
			v.Clear(pos)
		}
	}
}

// EqualRange reports whether v and other agree on every position of
// [lo, hi]. Both vectors must have the same length.
func (v *Vector) EqualRange(other *Vector, lo, hi int) bool {
	if v.n != other.n {
		panic("bitvec: EqualRange on vectors of different length")
	}
	for pos := lo; pos <= hi; pos++ {
		if v.Get(pos) != other.Get(pos) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	out := New(v.n)
	copy(out.words, v.words)
	return out
}

func maskRange(lo, hi uint) uint64 {
	return maskThrough(hi) &^ ((1 << lo) - 1)
}

func maskThrough(hi uint) uint64 {
	if hi == 63 {
		return ^uint64(0)
	}
	return (1 << (hi + 1)) - 1
}
