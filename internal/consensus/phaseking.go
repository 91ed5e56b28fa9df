package consensus

// PhaseKing is the binary consensus of Lemma 3.4, implemented as the
// classical phase-king protocol over the committee. Each phase takes two
// rounds:
//
//	round A: every member broadcasts its current bit to the committee;
//	round B: the phase's king broadcasts its majority bit as a tiebreak.
//
// A member keeps its own majority when it saw a strong quorum of at least
// m − t matching votes, and otherwise adopts the king's bit. With fewer
// than one third Byzantine members per view, one phase with a correct
// king forces agreement, and validity (unanimous correct inputs survive)
// holds in every phase. Running ⌊m/2⌋ + 1 phases guarantees a correct
// king because Byzantine members are fewer than half the committee
// (|B| < c_g/2 ≤ |G|/2, Lemma 3.5).
type PhaseKing struct {
	self    int
	members []int
	kings   []int
	cur     Value

	phase int
	sub   int     // 0 = about to send votes, 1 = vote inbox + king send, 2 = king inbox
	votes voteSet // collection scratch, cleared and reused per phase
	out   []Msg   // broadcast scratch, valid until the next Step
	done  bool
}

var _ Machine = (*PhaseKing)(nil)

// NewPhaseKing creates a consensus instance for the member at link index
// self with the given binary input. members is the (shared) committee
// view as link indices; the king schedule is the sorted member list, so
// all correct members agree on it.
func NewPhaseKing(self int, members []int, input bool) *PhaseKing {
	sorted := sortedMembers(members)
	phases := len(sorted)/2 + 1
	kings := make([]int, 0, phases)
	for i := 0; i < phases; i++ {
		kings = append(kings, sorted[i%len(sorted)])
	}
	pk := &PhaseKing{
		self:    self,
		members: sorted,
		kings:   kings,
		cur:     Bit(input),
	}
	pk.votes.init(sorted)
	return pk
}

// Reset rewinds the machine to round zero with a new input, reusing the
// member view, king schedule, and all collection scratch. Equivalent to
// NewPhaseKing(self, members, input) for the same committee: stale votes
// carry an old epoch stamp, so they are invisible to the fresh tally.
// Drivers running several consensus instances in sequence over one
// committee use it to avoid re-allocating the machine each time.
func (pk *PhaseKing) Reset(input bool) {
	pk.cur = Bit(input)
	pk.phase = 0
	pk.sub = 0
	pk.done = false
}

// Rounds returns the total number of synchronous rounds the protocol
// needs: two per king phase plus the final decision step.
func (pk *PhaseKing) Rounds() int { return 2*len(pk.kings) + 1 }

// RoundsFor returns the rounds a PhaseKing over m members needs, without
// constructing one. Drivers use it to keep silent nodes in lockstep.
func RoundsFor(m int) int { return 2*(m/2+1) + 1 }

// Done reports whether the protocol has decided.
func (pk *PhaseKing) Done() bool { return pk.done }

// Output returns the decided bit once Done.
func (pk *PhaseKing) Output() (bool, bool) {
	if !pk.done {
		return false, false
	}
	return pk.cur.AsBit(), true
}

// Step advances the protocol by one synchronous round.
func (pk *PhaseKing) Step(in []Msg) []Msg {
	if pk.done {
		return nil
	}
	switch pk.sub {
	case 0:
		// Send round-A votes.
		pk.sub = 1
		return pk.broadcast(pk.cur)
	case 1:
		// Round-A inbox arrives; tally and, if king, send the tiebreak.
		pk.votes.collect(in)
		pk.sub = 2
		if pk.kings[pk.phase] == pk.self {
			maj, _, _ := pk.majority()
			return pk.broadcast(maj)
		}
		return nil
	default:
		// Round-B inbox arrives; apply the king rule and, unless this
		// was the last phase, immediately send the next phase's votes
		// so phases pipeline at two rounds each.
		maj, cnt, _ := pk.majority()
		m := len(pk.members)
		if cnt >= m-byzThreshold(m) {
			pk.cur = maj
		} else {
			pk.cur = pk.kingValue(in)
		}
		pk.phase++
		if pk.phase == len(pk.kings) {
			pk.done = true
			return nil
		}
		pk.sub = 1
		return pk.broadcast(pk.cur)
	}
}

func (pk *PhaseKing) majority() (Value, int, int) {
	c0, c1 := pk.votes.countBits()
	if c1 > c0 {
		return Bit(true), c1, c0 + c1
	}
	return Bit(false), c0, c0 + c1
}

func (pk *PhaseKing) kingValue(in []Msg) Value {
	king := pk.kings[pk.phase]
	for _, m := range in {
		if m.From == king {
			return normalizeBit(m.Val)
		}
	}
	// Silent or crashed-equivalent king: deterministic default.
	return Bit(false)
}

func (pk *PhaseKing) broadcast(v Value) []Msg {
	out := pk.out[:0]
	for _, to := range pk.members {
		out = append(out, Msg{From: pk.self, To: to, Val: v})
	}
	pk.out = out
	return out
}

// normalizeBit maps any value a Byzantine king may send onto {0,1} so the
// decision stays within the binary domain (validity requires outputs to
// be some correct input only when correct inputs are unanimous; the
// binary domain keeps outputs well-formed regardless).
func normalizeBit(v Value) Value { return Bit(v.AsBit()) }
