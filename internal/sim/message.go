package sim

// Payload is the algorithm-specific content of a message. Implementations
// report their encoded size in bits so the simulator can account bit
// complexity honestly: an identifier from the original namespace [N] costs
// ceil(log2 N) bits, an interval endpoint in [n] costs ceil(log2 n) bits,
// and so on.
type Payload interface {
	// Kind returns a short stable name for the message type, used for
	// per-kind metric breakdowns.
	Kind() string
	// Bits returns the encoded payload size in bits.
	Bits() int
}

// ToAll is the shared-broadcast sentinel recipient: a single outbox entry
// with To == ToAll fans out to every link in the network inside the
// engine's shared-aggregate delivery. It is ToSet(0): the engine interns
// the universal set [0, n) as set 0 for every run, so a broadcast is just
// the multicast to the full link set — the paper's "send via n links".
// The payload is stored once by the sender; metrics still account one
// wire message per recipient.
const ToAll = -1

// toSetBase anchors the ToSet encoding: To == toSetBase-id addresses the
// interned recipient set id (see Sets), so every To < 0 is a shared
// target and every To >= 0 an explicit link.
const toSetBase = ToAll

// ToSet encodes interned set id (from Sets.InternPhase) as a Message.To
// recipient: a single outbox entry with To == ToSet(id) is a shared
// multicast to every member of the set, billed as |set| wire messages and
// delivered through the engine's shared-aggregate layer. The payload is
// stored once regardless of fan-out.
func ToSet(id int) int { return toSetBase - id }

// toSetID decodes a shared recipient (To < 0) back to its set id.
func toSetID(to int) int { return toSetBase - to }

// Message is a single point-to-point message in the synchronous network.
// The From field is stamped by the network itself, which models message
// authentication: a Byzantine node cannot spoof another node's identity.
type Message struct {
	// From is the link index of the sender, stamped by the network.
	From int
	// To is the link index of the recipient, or a shared target (ToAll,
	// or ToSet(id) for an interned recipient set) fanned out at delivery.
	// In a *delivered* inbox, To is unspecified: a recipient bound
	// zero-copy to a shared aggregate sees the sender's sentinel, so
	// nodes must identify themselves by their own link index, never by
	// reading To. (From is always the true sender.)
	To int
	// Payload is the message content.
	Payload Payload
}

// Outbox is the set of messages a node emits in one round.
type Outbox []Message

// Broadcast emits p to every link in [0, n), the paper's "send via n
// links" primitive (this includes the sender's own link, as in the
// paper's complete-network model). n must be the network size; the
// returned outbox holds a single ToAll entry that the engine fans out at
// delivery, so a broadcast costs O(1) sender-side memory while still
// being metered as n point-to-point messages on the wire.
func Broadcast(from, n int, p Payload) Outbox {
	_ = n // fan-out width is the network size, resolved by the engine
	return Outbox{{From: from, To: ToAll, Payload: p}}
}

// Multicast appends one message carrying p to each listed recipient. The
// payload itself is shared across the entries; only the fixed-size
// headers are materialized per recipient, which is cheap at the
// committee-sized fan-outs Multicast is used for.
func Multicast(from int, to []int, p Payload) Outbox {
	out := make(Outbox, 0, len(to))
	for _, t := range to {
		out = append(out, Message{From: from, To: t, Payload: p})
	}
	return out
}
