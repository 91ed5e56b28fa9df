package consensus

// Validator is the weak validator of Lemma 3.3, implemented as two-round
// graded consensus on O(log N)-bit values:
//
//	round 1: every member broadcasts its input value;
//	round 2: every member broadcasts the value it saw at least m − t
//	         times in round 1 (or stays silent when no such value exists);
//	decide:  a value echoed at least m − t times yields ⟨same=1, value⟩,
//	         a value echoed at least t + 1 times yields ⟨same=0, value⟩,
//	         otherwise the member keeps its own input with same=0.
//
// Properties (with t < m/3 Byzantine per view):
//
//   - strong validity: the output equals some correct member's input —
//     an echo count of t+1 contains a correct echo, which required m−t
//     round-1 votes, of which at least m−2t > t came from correct members;
//   - unanimity: if all correct members share input v, every correct
//     member outputs ⟨1, v⟩;
//   - weak agreement: if any correct member outputs same=1 for value v,
//     every correct member outputs v (possibly with same=0), because
//     correct members can collectively echo at most one value and the
//     m−t echoes seen by the grading member include more than t correct
//     ones visible to everybody.
type Validator struct {
	members []int
	in      Value

	round    int
	votes    voteSet // collection scratch, cleared and reused
	done     bool
	outSame  bool
	outValue Value
}

var _ Machine = (*Validator)(nil)

// NewValidator creates a validator instance with the given input.
// members is the shared committee view as link indices; a member's own
// broadcasts reach it like everyone else's, so it needs no own link.
func NewValidator(members []int, input Value) *Validator {
	va := &Validator{members: sortedMembers(members), in: input}
	va.votes.init(va.members)
	return va
}

// Reset rewinds the machine to round zero with a new input, reusing the
// member view and collection scratch — equivalent to NewValidator over
// the same committee (see PhaseKing.Reset).
func (va *Validator) Reset(input Value) {
	va.in = input
	va.round = 0
	va.done = false
	va.outSame = false
	va.outValue = Value{}
}

// ValidatorRounds is the number of synchronous rounds a Validator needs.
const ValidatorRounds = 3

// Done reports whether the protocol has produced its output.
func (va *Validator) Done() bool { return va.done }

// Output returns ⟨same, value⟩ once Done.
func (va *Validator) Output() (same bool, val Value, ok bool) {
	if !va.done {
		return false, Value{}, false
	}
	return va.outSame, va.outValue, true
}

// Step advances the protocol by one synchronous round and returns the
// member's committee broadcast for it, if any.
func (va *Validator) Step(in []Msg) (Value, bool) {
	if va.done {
		return Value{}, false
	}
	m := len(va.members)
	t := byzThreshold(m)
	switch va.round {
	case 0:
		va.round = 1
		return va.in, true
	case 1:
		// Round-1 votes arrive; echo a strong-quorum value if one exists.
		va.votes.collect(in)
		best, cnt, _ := va.votes.countVotes()
		va.round = 2
		if cnt >= m-t {
			return best, true
		}
		return Value{}, false
	default:
		// Echoes arrive; grade.
		va.votes.collect(in)
		best, cnt, _ := va.votes.countVotes()
		switch {
		case cnt >= m-t:
			va.outSame, va.outValue = true, best
		case cnt >= t+1:
			va.outSame, va.outValue = false, best
		default:
			va.outSame, va.outValue = false, va.in
		}
		va.done = true
		return Value{}, false
	}
}
