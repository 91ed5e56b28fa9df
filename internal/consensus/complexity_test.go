package consensus

import (
	"testing"
)

// TestPhaseKingMessageComplexity: Lemma 3.4 allows O(ĉg³) messages; the
// implementation sends exactly (1 vote broadcast per member per phase)
// plus one king tiebreak per phase: phases·(m² + m) ≤ m³.
func TestPhaseKingMessageComplexity(t *testing.T) {
	for _, m := range []int{4, 9, 16, 25} {
		members, correct, _ := buildCommittee(m, 0)
		machines := make(map[int]Machine, m)
		for _, self := range correct {
			machines[self] = NewPhaseKing(self, members, self%2 == 0)
		}
		d := newDriver(members, machines, nil)
		if !d.run(10 * m) {
			t.Fatalf("m=%d: did not terminate", m)
		}
		phases := m/2 + 1
		want := phases * (m*m + m)
		if d.messages != want {
			t.Fatalf("m=%d: %d messages, want exactly %d", m, d.messages, want)
		}
		if d.messages > m*m*m+2*m*m {
			t.Fatalf("m=%d: %d messages exceed the O(m³) envelope", m, d.messages)
		}
	}
}

// TestValidatorMessageComplexity: Lemma 3.3 allows O(ĉg²) messages; the
// implementation sends at most two broadcasts per member: ≤ 2m².
func TestValidatorMessageComplexity(t *testing.T) {
	for _, m := range []int{4, 10, 20} {
		members, correct, _ := buildCommittee(m, 0)
		machines := make(map[int]Machine, m)
		for _, self := range correct {
			machines[self] = NewValidator(members, Value{Hi: 9})
		}
		d := newDriver(members, machines, nil)
		if !d.run(ValidatorRounds + 1) {
			t.Fatalf("m=%d: did not terminate", m)
		}
		if d.messages > 2*m*m {
			t.Fatalf("m=%d: %d messages exceed 2m²", m, d.messages)
		}
		if d.messages != 2*m*m {
			t.Fatalf("m=%d: %d messages, want 2m² (all echo on unanimity)", m, d.messages)
		}
	}
}

// TestDSMessageComplexity: with an honest sender, every member except the
// sender (which already accepted its own value) relays exactly once, so
// one instance costs m + (m−1)·m messages regardless of t — the n
// parallel instances of the baseline give its Θ(n³) total.
func TestDSMessageComplexity(t *testing.T) {
	m, tb := 8, 2
	_, machines := dsSetup(m, tb, 0, 42, allLinks(m))
	count := 0
	pending := make(map[int][]DSMsg)
	for round := 0; round < tb+3; round++ {
		next := make(map[int][]DSMsg)
		for self, ds := range machines {
			if ds.Done() {
				continue
			}
			for _, r := range ds.Step(pending[self]) {
				for _, to := range ds.participants {
					count++
					next[to] = append(next[to], DSMsg{
						Instance: 0, From: self, To: to,
						Value: r.Value, Chain: r.Chain,
					})
				}
			}
		}
		pending = next
	}
	want := m + (m-1)*m
	if count != want {
		t.Fatalf("%d messages, want %d", count, want)
	}
}
