// Package consensus implements the two committee subprotocols the
// Byzantine-resilient renaming algorithm composes (Section 3.3):
//
//   - Consensus (Lemma 3.4): classical binary consensus, instantiated as
//     phase king with rotating kings drawn from the shared committee
//     order. Tolerates strictly fewer than one third Byzantine members in
//     every correct view.
//   - Validator (Lemma 3.3): the weak validator inspired by Lenzen and
//     Sheikholeslami, instantiated as two-round graded consensus on
//     O(log N)-bit values. It provides strong validity (the output is
//     some correct member's input) and weak agreement (a member that
//     outputs same=1 is guaranteed every correct member holds the same
//     output value).
//
// Both protocols are transport-agnostic step machines: the renaming node
// drives them one synchronous round at a time and wraps their messages
// into simulator payloads. As discussed in DESIGN.md, the reproduction
// instantiates them under the common-view assumption of Lemmas 3.3/3.4
// (G ⊆ ∩ C_v): all correct members share the member list and therefore a
// king schedule, while Byzantine members retain full power to equivocate,
// lie, or stay silent inside the protocols.
package consensus

// Value is a small fixed-width value (up to 128 bits, enough for a
// fingerprint–counter pair) carried through the subprotocols. Values are
// ordered lexicographically for deterministic tie-breaking.
type Value struct {
	Hi uint64
	Lo uint64
}

// Bit wraps a binary value.
func Bit(b bool) Value {
	if b {
		return Value{Lo: 1}
	}
	return Value{}
}

// AsBit interprets the value as a binary flag (nonzero = true).
func (v Value) AsBit() bool { return v.Hi != 0 || v.Lo != 0 }

// Less orders values lexicographically (Hi, then Lo).
func Less(a, b Value) bool {
	if a.Hi != b.Hi {
		return a.Hi < b.Hi
	}
	return a.Lo < b.Lo
}

// Msg is one point-to-point protocol message. From and To are link
// indices in the underlying network; From is trustworthy because the
// simulator models authenticated channels.
type Msg struct {
	From int
	To   int
	Val  Value
}

// Machine is a step-driven subprotocol. The driver calls Step once per
// synchronous round, passing the protocol messages delivered this round;
// the first call receives no input. Step returns the messages to send
// this round; the returned slice is only valid until the next Step call
// (machines reuse their broadcast scratch), so drivers must copy what
// they retain. After Done reports true, Step must not be called again.
type Machine interface {
	Step(in []Msg) (out []Msg)
	Done() bool
}

// byzThreshold returns t = ceil(m/3) − 1, the maximum number of Byzantine
// members tolerated in a view of size m. The committee guarantees of
// Lemma 3.5 (|B| < c_g/2 ≤ |G|/2) imply the Byzantine fraction of every
// correct view is strictly below one third, hence at most t.
func byzThreshold(m int) int {
	return (m+2)/3 - 1
}
