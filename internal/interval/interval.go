// Package interval implements the interval algebra of Section 2: closed
// integer intervals [Lo, Hi] arranged in the binary halving tree rooted at
// [1, n]. A vertex labelled I = [l, r] with more than one integer has a
// left child bot(I) = [l, floor((l+r)/2)] and a right child
// top(I) = [floor((l+r)/2)+1, r]. The crash-resilient renaming algorithm
// walks nodes down this tree until every interval has size one.
package interval

import (
	"fmt"
	"strconv"
)

// Interval is a closed integer interval [Lo, Hi] with Lo <= Hi.
// The zero value is the (invalid) empty interval [0, 0]; construct
// intervals with New or Full.
type Interval struct {
	Lo int
	Hi int
}

// New returns the interval [lo, hi]. It panics if lo > hi, which would be
// a programming error: the halving tree never produces empty intervals.
func New(lo, hi int) Interval {
	if lo > hi {
		panic(fmt.Sprintf("interval: invalid [%d,%d]", lo, hi))
	}
	return Interval{Lo: lo, Hi: hi}
}

// Full returns the tree root [1, n].
func Full(n int) Interval { return New(1, n) }

// Size returns the number of integers in the interval.
func (iv Interval) Size() int { return iv.Hi - iv.Lo + 1 }

// Unit reports whether the interval contains exactly one integer, i.e.
// the owning node has determined its new identity.
func (iv Interval) Unit() bool { return iv.Lo == iv.Hi }

// Value returns the single integer of a unit interval. ok is false when
// the interval still spans more than one value.
func (iv Interval) Value() (v int, ok bool) {
	if !iv.Unit() {
		return 0, false
	}
	return iv.Lo, true
}

// Bot returns bot(I) = [l, floor((l+r)/2)], the left child in the tree.
// It panics on unit intervals, which are leaves.
func (iv Interval) Bot() Interval {
	if iv.Unit() {
		panic("interval: Bot of unit interval")
	}
	return Interval{Lo: iv.Lo, Hi: (iv.Lo + iv.Hi) / 2}
}

// Top returns top(I) = [floor((l+r)/2)+1, r], the right child in the tree.
// It panics on unit intervals, which are leaves.
func (iv Interval) Top() Interval {
	if iv.Unit() {
		panic("interval: Top of unit interval")
	}
	return Interval{Lo: (iv.Lo+iv.Hi)/2 + 1, Hi: iv.Hi}
}

// Contains reports whether other ⊆ iv.
func (iv Interval) Contains(other Interval) bool {
	return iv.Lo <= other.Lo && other.Hi <= iv.Hi
}

// ContainsValue reports whether v ∈ iv.
func (iv Interval) ContainsValue(v int) bool { return iv.Lo <= v && v <= iv.Hi }

// Depth returns the depth of iv in the halving tree rooted at root, or
// ok=false when iv is not a vertex of that tree. The root has depth 0.
func (iv Interval) Depth(root Interval) (depth int, ok bool) {
	cur := root
	for {
		if cur == iv {
			return depth, true
		}
		if cur.Unit() || !cur.Contains(iv) {
			return 0, false
		}
		if cur.Bot().Contains(iv) {
			cur = cur.Bot()
		} else if cur.Top().Contains(iv) {
			cur = cur.Top()
		} else {
			// iv straddles the midpoint: not a tree vertex.
			return 0, false
		}
		depth++
	}
}

// String renders "[lo,hi]".
func (iv Interval) String() string {
	return "[" + strconv.Itoa(iv.Lo) + "," + strconv.Itoa(iv.Hi) + "]"
}

// Less orders intervals by left endpoint, then by right endpoint; the
// crash algorithm's NodeAction sorts responses by min(I) ascending.
func Less(a, b Interval) bool {
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	return a.Hi < b.Hi
}
