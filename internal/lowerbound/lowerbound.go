// Package lowerbound implements the empirical side of Theorem 1.4: any
// randomized strong renaming algorithm that succeeds with probability at
// least 3/4 must send Ω(n) messages in expectation, even with shared
// randomness and authenticated channels.
//
// The paper proves this through the *anonymous renaming* reduction: if an
// algorithm sends few messages, some nodes must pick their new identity
// without ever communicating. Anonymous nodes with identical programs and
// shared (public) randomness can only differentiate through their private
// coins, so two silent nodes pick identical names with non-trivial
// probability — a birthday-style collision.
//
// This package simulates the strongest possible budgeted strategy: a
// coordinator spends its message budget handing out distinct names to as
// many nodes as it can reach (one message per reached node — the
// information-theoretic best), while every unreached node draws its name
// i.i.d. uniformly from the remaining slots (the optimal symmetric
// strategy for anonymous, non-communicating nodes). Measuring the success
// probability as a function of the budget reproduces the theorem's shape:
// success ≥ 3/4 forces the budget to grow linearly in n.
package lowerbound

import (
	"math/rand"

	"renaming/internal/sim"
)

// Trial runs one budgeted anonymous renaming attempt over n nodes: budget
// nodes receive distinct coordinator-assigned names, the remaining
// k = n − budget nodes draw i.i.d. uniform names from the k leftover
// slots. It reports whether all n names ended up distinct.
func Trial(n, budget int, rng *rand.Rand) bool {
	if budget >= n-1 {
		// With n−1 or more messages the coordinator reaches everyone
		// that needs reaching; the last node takes the last slot.
		return true
	}
	if budget < 0 {
		budget = 0
	}
	k := n - budget // uncoordinated nodes, k leftover slots
	seen := make([]bool, k)
	for i := 0; i < k; i++ {
		slot := rng.Intn(k)
		if seen[slot] {
			return false
		}
		seen[slot] = true
	}
	return true
}

// SuccessRate estimates the success probability of the budgeted strategy
// by Monte-Carlo over the given number of trials.
func SuccessRate(n, budget, trials int, seed int64) float64 {
	rng := sim.NewRand(seed, 0x6c6f776572) // "lower"
	successes := 0
	for i := 0; i < trials; i++ {
		if Trial(n, budget, rng) {
			successes++
		}
	}
	return float64(successes) / float64(trials)
}

// MinBudgetFor searches for the smallest budget whose Monte-Carlo success
// rate reaches the target probability (e.g. the theorem's 3/4). The
// success rate is monotone in the budget, so a linear scan from above
// suffices; the scan walks down from n−1 until the rate drops below the
// target, then reports the previous budget.
func MinBudgetFor(n int, target float64, trials int, seed int64) int {
	last := n - 1
	for budget := n - 1; budget >= 0; budget-- {
		if SuccessRate(n, budget, trials, seed) < target {
			return last
		}
		last = budget
	}
	return last
}
