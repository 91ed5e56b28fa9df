package core

import (
	"renaming/internal/consensus"
	"renaming/internal/sim"
)

// Payload kinds of the Byzantine-resilient algorithm.
const (
	KindElect    = "elect"    // committee-membership announcement
	KindAnnounce = "announce" // original-identity announcement to the committee
	KindSub      = "sub"      // Validator/Consensus/diff subprotocol traffic
	KindNew      = "new"      // new-identity distribution
)

// ElectPayload announces that the (authenticated) sender's identity is in
// the shared candidate pool. It carries the identity so receivers can
// check pool membership and verify the authentication binding.
type ElectPayload struct {
	ID    int
	SizeN int
}

var _ sim.Payload = ElectPayload{}

// Kind implements sim.Payload.
func (ElectPayload) Kind() string { return KindElect }

// Bits implements sim.Payload.
func (p ElectPayload) Bits() int { return bitsFor(p.SizeN) }

// AnnouncePayload carries a node's original identity to a committee
// member during aggregation.
type AnnouncePayload struct {
	ID    int
	SizeN int
}

var _ sim.Payload = AnnouncePayload{}

// Kind implements sim.Payload.
func (AnnouncePayload) Kind() string { return KindAnnounce }

// Bits implements sim.Payload.
func (p AnnouncePayload) Bits() int { return bitsFor(p.SizeN) }

// SubPayload wraps one committee subprotocol message (Validator vote or
// echo, phase-king vote or tiebreak, diff report). PC is the sender's
// subprotocol round counter; correct members advance in lockstep, so
// receivers accept exactly the messages tagged with the expected counter
// and discard stale or replayed Byzantine traffic.
type SubPayload struct {
	PC  int
	Val consensus.Value

	// ValueBits is the billed width of Val. Every subprotocol message is
	// billed as a fingerprint–counter pair, 61 + bitsFor(n) bits, binary
	// phase-king votes and diff reports included, although a binary
	// value needs only 1 bit. The golden fingerprints pin this billing.
	ValueBits int
	// PCBits is the width of the round counter.
	PCBits int
}

var _ sim.Payload = SubPayload{}

// Kind implements sim.Payload.
func (SubPayload) Kind() string { return KindSub }

// Bits implements sim.Payload.
func (p SubPayload) Bits() int { return p.ValueBits + p.PCBits }

// NewPayload is the decoded form of a NEW message, which distributes a
// node's new identity; on the wire it travels as *PackedNew. Null marks
// that the sender's copy of the recipient's segment was dirty, so it
// abstains.
type NewPayload struct {
	NewID int
	Null  bool
}
