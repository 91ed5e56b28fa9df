package lowerbound

import (
	"math"
	"testing"

	"renaming/internal/sim"
)

func TestTrialEdges(t *testing.T) {
	rng := sim.NewRand(1, 1)
	if !Trial(10, 9, rng) || !Trial(10, 100, rng) {
		t.Fatal("full budget must always succeed")
	}
	// budget 0 over n=2: two nodes pick from 2 slots iid: succeeds only
	// when they differ (probability 1/2).
	succ := 0
	for i := 0; i < 10000; i++ {
		if Trial(2, 0, rng) {
			succ++
		}
	}
	if succ < 4500 || succ > 5500 {
		t.Fatalf("n=2 budget=0 success %d/10000, want ~5000", succ)
	}
}

func TestSuccessRateMonotoneInBudget(t *testing.T) {
	n := 64
	prev := -1.0
	for _, budget := range []int{0, 16, 32, 48, 56, 60, 62, 63} {
		rate := SuccessRate(n, budget, 3000, 7)
		if rate < prev-0.05 { // Monte-Carlo slack
			t.Fatalf("success rate dropped: budget %d rate %.3f < prev %.3f", budget, rate, prev)
		}
		prev = rate
	}
}

func TestSuccessMatchesBirthdayAsymptotics(t *testing.T) {
	// With k uncoordinated nodes the success probability is k!/k^k ≈
	// e^{-k}·√(2πk)·(1+o(1)); for k ≥ 16 it is already below 1%.
	rate := SuccessRate(1000, 1000-16, 5000, 3)
	want := factorialOverPow(16)
	if math.Abs(rate-want) > 0.02 {
		t.Fatalf("rate %.4f, analytic %.4f", rate, want)
	}
}

func factorialOverPow(k int) float64 {
	v := 1.0
	for i := 1; i <= k; i++ {
		v *= float64(i) / float64(k)
	}
	return v
}

func TestMinBudgetForLinearInN(t *testing.T) {
	for _, n := range []int{32, 128, 512} {
		min := MinBudgetFor(n, 0.75, 1500, int64(n))
		// Theorem 1.4's shape: a constant fraction of n is required.
		if float64(min) < 0.9*float64(n) {
			t.Fatalf("n=%d: min budget %d unexpectedly small", n, min)
		}
		if min > n-1 {
			t.Fatalf("n=%d: min budget %d exceeds n−1", n, min)
		}
	}
}

func TestRunProtocolFullBudgetSucceeds(t *testing.T) {
	// prob 1: everyone requests; names are exactly a permutation of the
	// arrival order → always distinct.
	for seed := int64(0); seed < 5; seed++ {
		out, err := RunProtocol(32, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Success {
			t.Fatalf("seed %d: full-budget protocol failed", seed)
		}
		// n requests + n grants.
		if out.Messages != 64 {
			t.Fatalf("messages = %d, want 64", out.Messages)
		}
	}
}

func TestProtocolSuccessDropsWithBudget(t *testing.T) {
	n := 64
	full, _, err := ProtocolSuccessRate(n, 1, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full != 1 {
		t.Fatalf("full budget rate %f", full)
	}
	half, halfMsgs, err := ProtocolSuccessRate(n, 0.5, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if half > 0.05 {
		t.Fatalf("half budget success %f — should collapse (birthday)", half)
	}
	if halfMsgs >= float64(2*n) || halfMsgs <= 0 {
		t.Fatalf("half budget mean messages %f implausible", halfMsgs)
	}
}

func TestProtocolMatchesAnalyticalShape(t *testing.T) {
	// The on-the-wire protocol and the analytical Trial agree on the
	// big picture: ~n messages needed for success ≥ 3/4.
	n := 48
	rate, msgs, err := ProtocolSuccessRate(n, 0.95, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	// ~5% of nodes pick blind: with k≈2.4 silent nodes expected, success
	// is non-trivial but clearly below 3/4.
	if rate >= 0.75 {
		t.Fatalf("rate %f at 0.95 budget — too easy, model broken", rate)
	}
	if msgs >= float64(2*n) {
		t.Fatalf("messages %f at 0.95 budget", msgs)
	}
}
