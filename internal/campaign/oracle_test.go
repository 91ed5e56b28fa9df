package campaign

import (
	"testing"

	"renaming"
)

// res builds a synthetic result for oracle unit tests: n nodes, given
// decisions, everything else healthy.
func res(newIDs []int, mutate ...func(*renaming.Result)) *renaming.Result {
	r := &renaming.Result{
		NewIDByLink:    newIDs,
		Unique:         true,
		Rounds:         10,
		HonestMessages: int64(len(newIDs)) * 10,
	}
	for _, m := range mutate {
		m(r)
	}
	return r
}

func invariants(vs []Violation) map[string]bool {
	out := map[string]bool{}
	for _, v := range vs {
		out[v.Invariant] = true
	}
	return out
}

func TestOracleCleanRunPasses(t *testing.T) {
	o := Oracle{Expect: CrashExpectation(4)}
	ids := []int{10, 20, 30, 40}
	if vs := o.Check(4, ids, res([]int{1, 2, 3, 4})); len(vs) != 0 {
		t.Fatalf("clean run flagged: %+v", vs)
	}
}

func TestOracleDetectsDuplicate(t *testing.T) {
	o := Oracle{Expect: CrashExpectation(4)}
	vs := o.Check(4, []int{10, 20, 30, 40}, res([]int{1, 2, 2, 4}))
	got := invariants(vs)
	// Both the duplicate itself and the disagreement with the result's
	// own unique=true verdict surface as uniqueness violations.
	if !got[InvUniqueness] {
		t.Fatalf("duplicate not flagged: %+v", vs)
	}
}

func TestOracleDetectsNamespaceBreach(t *testing.T) {
	o := Oracle{Expect: CrashExpectation(4)}
	vs := o.Check(4, []int{10, 20, 30, 40}, res([]int{1, 2, 3, 9}))
	if !invariants(vs)[InvNamespace] {
		t.Fatalf("out-of-range name not flagged: %+v", vs)
	}
}

func TestOracleDetectsUndecidedSurvivor(t *testing.T) {
	o := Oracle{Expect: CrashExpectation(4)}
	// No crashes, but link 2 never decided.
	vs := o.Check(4, []int{10, 20, 30, 40}, res([]int{1, 2, -1, 4}))
	if !invariants(vs)[InvUndecided] {
		t.Fatalf("undecided survivor not flagged: %+v", vs)
	}
	// With one crash the same decision vector is fine.
	crashed := res([]int{1, 2, -1, 4}, func(r *renaming.Result) { r.Crashes = 1 })
	if vs := o.Check(4, []int{10, 20, 30, 40}, crashed); len(vs) != 0 {
		t.Fatalf("crashed node's hole flagged: %+v", vs)
	}
}

func TestOracleDetectsOrderBreach(t *testing.T) {
	o := Oracle{Expect: ByzantineExpectation(64, 0)}
	// ids ascending but names 2,1 swap the first two.
	vs := o.Check(4, []int{10, 20, 30, 40},
		res([]int{2, 1, 3, 4}, func(r *renaming.Result) {
			r.AssumptionHolds = true
			r.OrderPreserving = true // the oracle must not trust this
			r.Unique = true
		}))
	if !invariants(vs)[InvOrder] {
		t.Fatalf("order swap not flagged: %+v", vs)
	}
}

func TestOracleGatesOnAssumption(t *testing.T) {
	o := Oracle{Expect: ByzantineExpectation(64, 0)}
	// Outside the assumption the theorem promises nothing: a duplicate
	// must not be flagged.
	vs := o.Check(4, []int{10, 20, 30, 40},
		res([]int{1, 1, 3, 4}, func(r *renaming.Result) { r.AssumptionHolds = false }))
	if got := invariants(vs); got[InvUniqueness] || got[InvOrder] {
		t.Fatalf("gated checks ran outside the assumption: %+v", vs)
	}
}

func TestOracleDetectsCeilingsAndFloor(t *testing.T) {
	expect := CrashExpectation(4)
	o := Oracle{Expect: expect}
	over := res([]int{1, 2, 3, 4}, func(r *renaming.Result) {
		r.Rounds = expect.RoundCeiling + 1
		r.HonestMessages = expect.MessageCeiling + 1
	})
	got := invariants(o.Check(4, []int{10, 20, 30, 40}, over))
	if !got[InvRoundCeiling] || !got[InvMessageCeiling] {
		t.Fatalf("ceiling breaches not flagged: %+v", got)
	}
	starved := res([]int{1, 2, 3, 4}, func(r *renaming.Result) { r.HonestMessages = 2 })
	if !invariants(o.Check(4, []int{10, 20, 30, 40}, starved))[InvMessageFloor] {
		t.Fatal("Ω(n) floor breach not flagged")
	}
}

// TestOracleMessageFloorNeedsTwoCorrectNodes: the Ω(n) floor is about
// correct nodes telling each other apart, so a lone correct survivor
// that renames itself silently is not a violation, while two correct
// nodes that exchange nothing still are.
func TestOracleMessageFloorNeedsTwoCorrectNodes(t *testing.T) {
	silent := func(r *renaming.Result) { r.HonestMessages = 0 }
	cases := []struct {
		name    string
		n       int
		ids     []int
		res     *renaming.Result
		flagged bool
	}{
		{"lone node", 1, []int{7}, res([]int{1}, silent), false},
		{"one survivor of two", 2, []int{7, 9},
			res([]int{1, -1}, silent, func(r *renaming.Result) { r.Crashes = 1 }), false},
		{"two correct nodes", 2, []int{7, 9}, res([]int{1, 2}, silent), true},
	}
	for _, tc := range cases {
		o := Oracle{Expect: CrashExpectation(tc.n)}
		if got := invariants(o.Check(tc.n, tc.ids, tc.res))[InvMessageFloor]; got != tc.flagged {
			t.Errorf("%s: message-floor flagged = %v, want %v", tc.name, got, tc.flagged)
		}
	}
}

func TestOracleDetectsIterationCeiling(t *testing.T) {
	o := Oracle{Expect: ByzantineExpectation(64, 2)}
	over := res([]int{1, 2, 3, 4}, func(r *renaming.Result) {
		r.AssumptionHolds = true
		r.Iterations = o.Expect.IterationCeiling + 1
	})
	if !invariants(o.Check(4, []int{10, 20, 30, 40}, over))[InvIterationCeiling] {
		t.Fatal("iteration ceiling breach not flagged")
	}
}

func TestCeilingFormulas(t *testing.T) {
	if got := CrashRoundCeiling(64); got != 9*6+1 {
		t.Fatalf("CrashRoundCeiling(64) = %d, want 55", got)
	}
	if got := CrashRoundCeiling(1024); got != 9*10+1 {
		t.Fatalf("CrashRoundCeiling(1024) = %d, want 91", got)
	}
	if got := ByzIterationCeiling(256, 3); got != 4*4*(8+1)+8 {
		t.Fatalf("ByzIterationCeiling(256,3) = %d, want %d", got, 4*4*9+8)
	}
}

func TestCodesDedup(t *testing.T) {
	codes := Codes([]Violation{
		{Invariant: InvUniqueness}, {Invariant: InvNamespace},
		{Invariant: InvUniqueness},
	})
	if len(codes) != 2 || codes[0] != InvUniqueness || codes[1] != InvNamespace {
		t.Fatalf("codes = %v", codes)
	}
}
