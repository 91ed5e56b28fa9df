package interval

import (
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	iv := New(3, 10)
	if iv.Size() != 8 || iv.Unit() {
		t.Fatalf("size/unit wrong: %v", iv)
	}
	if got := iv.Bot(); got != New(3, 6) {
		t.Fatalf("Bot = %v", got)
	}
	if got := iv.Top(); got != New(7, 10) {
		t.Fatalf("Top = %v", got)
	}
	if v, ok := New(5, 5).Value(); !ok || v != 5 {
		t.Fatalf("Value = %d,%v", v, ok)
	}
	if _, ok := iv.Value(); ok {
		t.Fatal("non-unit interval reported a value")
	}
	if iv.String() != "[3,10]" {
		t.Fatalf("String = %s", iv.String())
	}
}

func TestContainsOverlaps(t *testing.T) {
	a, b := New(1, 8), New(3, 5)
	if !a.Contains(b) || b.Contains(a) {
		t.Fatal("Contains wrong")
	}
	if !a.ContainsValue(8) || a.ContainsValue(9) {
		t.Fatal("ContainsValue wrong")
	}
}

func TestDepth(t *testing.T) {
	root := Full(10) // [1,10] → [1,5],[6,10] → [1,3],[4,5],[6,8],[9,10] …
	cases := []struct {
		iv    Interval
		depth int
		ok    bool
	}{
		{Full(10), 0, true},
		{New(1, 5), 1, true},
		{New(6, 10), 1, true},
		{New(1, 3), 2, true},
		{New(9, 10), 2, true},
		{New(2, 4), 0, false}, // straddles a midpoint: not a tree vertex
		{New(1, 10), 0, true},
	}
	for _, c := range cases {
		depth, ok := c.iv.Depth(root)
		if ok != c.ok || (ok && depth != c.depth) {
			t.Errorf("Depth(%v) = %d,%v; want %d,%v", c.iv, depth, ok, c.depth, c.ok)
		}
	}
}

func TestLess(t *testing.T) {
	if !Less(New(1, 4), New(2, 3)) || Less(New(2, 3), New(1, 4)) {
		t.Fatal("Less by Lo wrong")
	}
	if !Less(New(1, 3), New(1, 4)) {
		t.Fatal("Less by Hi wrong")
	}
}

func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(5, 4)
}

func TestBotPanicsOnUnit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3, 3).Bot()
}

// TestQuickHalvingPartition: for any interval, Bot and Top partition it.
func TestQuickHalvingPartition(t *testing.T) {
	prop := func(loRaw, sizeRaw uint16) bool {
		lo := int(loRaw%1000) + 1
		size := int(sizeRaw%1000) + 2
		iv := New(lo, lo+size-1)
		bot, top := iv.Bot(), iv.Top()
		if bot.Hi+1 != top.Lo || bot.Lo != iv.Lo || top.Hi != iv.Hi {
			return false
		}
		if bot.Size()+top.Size() != iv.Size() {
			return false
		}
		// bot gets the ceiling half per the paper's floor((l+r)/2) split:
		// |bot| − |top| ∈ {0, 1}.
		diff := bot.Size() - top.Size()
		return diff == 0 || diff == 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLevelSizes: at every depth of the halving tree, interval sizes
// differ by at most one — the property behind the frozen-unit frontier
// argument in core.
func TestQuickLevelSizes(t *testing.T) {
	prop := func(nRaw uint16) bool {
		n := int(nRaw%500) + 1
		level := []Interval{Full(n)}
		for len(level) > 0 {
			min, max := level[0].Size(), level[0].Size()
			for _, iv := range level {
				if iv.Size() < min {
					min = iv.Size()
				}
				if iv.Size() > max {
					max = iv.Size()
				}
			}
			if max-min > 1 {
				return false
			}
			var next []Interval
			for _, iv := range level {
				if !iv.Unit() {
					next = append(next, iv.Bot(), iv.Top())
				}
			}
			level = next
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDepthRoundTrip: every vertex reached by halving reports its
// construction depth.
func TestQuickDepthRoundTrip(t *testing.T) {
	prop := func(nRaw uint16, path uint32) bool {
		n := int(nRaw%2000) + 1
		root := Full(n)
		iv := root
		depth := 0
		for !iv.Unit() {
			if path&1 == 0 {
				iv = iv.Bot()
			} else {
				iv = iv.Top()
			}
			path >>= 1
			depth++
			got, ok := iv.Depth(root)
			if !ok || got != depth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
