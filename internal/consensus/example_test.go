package consensus_test

import (
	"fmt"

	"renaming/internal/consensus"
)

// ExamplePhaseKing drives three committee members to agreement by
// stepping their machines in synchronous lockstep.
func ExamplePhaseKing() {
	members := []int{0, 1, 2}
	machines := make(map[int]*consensus.PhaseKing, len(members))
	inputs := map[int]bool{0: true, 1: true, 2: false}
	for _, self := range members {
		machines[self] = consensus.NewPhaseKing(self, members, inputs[self])
	}

	// A member's broadcast for a round reaches every member, itself
	// included, at the start of the next round.
	pending := make(map[int][]consensus.Msg)
	for {
		done := true
		next := make(map[int][]consensus.Msg)
		for self, m := range machines {
			if m.Done() {
				continue
			}
			done = false
			if v, send := m.Step(pending[self]); send {
				for _, to := range members {
					next[to] = append(next[to], consensus.Msg{From: self, Val: v})
				}
			}
		}
		if done {
			break
		}
		pending = next
	}

	a, _ := machines[0].Output()
	b, _ := machines[1].Output()
	c, _ := machines[2].Output()
	fmt.Println("agreement:", a == b && b == c)
	// Output:
	// agreement: true
}

// ExampleValidator shows the weak validator's unanimity guarantee.
func ExampleValidator() {
	members := []int{0, 1}
	in := consensus.Value{Hi: 7, Lo: 3}
	va0 := consensus.NewValidator(members, in)
	va1 := consensus.NewValidator(members, in)

	pending := make(map[int][]consensus.Msg)
	for !va0.Done() || !va1.Done() {
		next := make(map[int][]consensus.Msg)
		for self, va := range map[int]*consensus.Validator{0: va0, 1: va1} {
			if v, send := va.Step(pending[self]); send {
				for _, to := range members {
					next[to] = append(next[to], consensus.Msg{From: self, Val: v})
				}
			}
		}
		pending = next
	}

	same, out, _ := va0.Output()
	fmt.Println("same:", same, "value:", out == in)
	// Output:
	// same: true value: true
}
