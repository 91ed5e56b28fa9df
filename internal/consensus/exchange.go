package consensus

// Exchange is the trivial one-shot broadcast-and-collect machine used for
// the diff report of Section 3.1: every member broadcasts one value to
// the committee and collects everybody else's. It takes two synchronous
// rounds (send, then receive).
type Exchange struct {
	val Value

	round int
	votes voteSet // members' values, at most one per member
	done  bool
}

var _ Machine = (*Exchange)(nil)

// NewExchange creates an exchange instance that sends val and collects
// one value per member of the given committee view.
func NewExchange(members []int, val Value) *Exchange {
	ex := &Exchange{val: val}
	ex.votes.init(sortedMembers(members))
	return ex
}

// ExchangeRounds is the number of synchronous rounds an Exchange needs.
const ExchangeRounds = 2

// Done reports whether the collection finished.
func (ex *Exchange) Done() bool { return ex.done }

// CountBits returns how many of the collected values are zero and how
// many are nonzero (AsBit), valid once Done; both are 0 before. Only
// the first value per committee member counts; non-members are ignored.
func (ex *Exchange) CountBits() (zeros, ones int) {
	if !ex.done {
		return 0, 0
	}
	return ex.votes.countBits()
}

// Step implements Machine.
func (ex *Exchange) Step(in []Msg) (Value, bool) {
	if ex.done {
		return Value{}, false
	}
	if ex.round == 0 {
		ex.round = 1
		return ex.val, true
	}
	ex.votes.collect(in)
	ex.done = true
	return Value{}, false
}
