package core

import (
	"renaming/internal/interval"
	"renaming/internal/sim"
)

// Payload kinds of the crash-resilient algorithm.
const (
	KindNotify   = "notify"   // round 1: committee membership announcement
	KindStatus   = "status"   // round 2: ⟨ID(v), I_v, d_v, p_v⟩ to the committee
	KindResponse = "response" // round 3: committee decision per node
)

// NotifyPayload is the round-1 committee announcement. It carries no
// fields — the (authenticated) sender link identifies the committee
// member — so it costs a single bit.
type NotifyPayload struct{}

var _ sim.Payload = NotifyPayload{}

// Kind implements sim.Payload.
func (NotifyPayload) Kind() string { return KindNotify }

// Bits implements sim.Payload.
func (NotifyPayload) Bits() int { return 1 }

// StatusPayload is the decoded round-2 message ⟨ID(v), I_v, d_v, p_v⟩ a
// node sends to every active committee member; on the wire it travels
// as PackedStatus, which carries the billed width (see crashCodec).
type StatusPayload struct {
	ID int
	I  interval.Interval
	D  int
	P  int
}

// ResponsePayload is the decoded round-3 committee decision ⟨ID(w), I, d,
// p⟩ for node w; on the wire it travels inside a member's
// PackedResponses batch. Done is the early-stopping extension's signal
// (one extra bit): the committee member saw only unit intervals this
// phase, so every alive node has determined its identity and may halt.
type ResponsePayload struct {
	ID   int
	I    interval.Interval
	D    int
	P    int
	Done bool
}
