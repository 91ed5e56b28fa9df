package sim

// Node is a participant in the synchronous message-passing network.
//
// The execution model matches Section 1 of the paper: all nodes are
// activated simultaneously and proceed in lockstep rounds. In round r a
// node first receives every message that was sent to it in round r-1
// (its inbox), then sends its own messages for round r. The network calls
// Step once per round with the inbox sorted by sender link; Step must only
// touch the node's own state, because all alive nodes step concurrently.
type Node interface {
	// Step executes one synchronous round and returns the messages the
	// node sends this round. round counts from 0.
	//
	// Buffer ownership, both directions: the inbox slice is reused by the
	// engine between rounds, so a node that needs messages later must
	// copy the Message values out; symmetrically, the engine does not
	// retain the returned Outbox past the round, so a node may reuse one
	// outbox buffer across rounds to avoid per-round allocation.
	Step(round int, inbox []Message) Outbox

	// Output returns the node's decided new identity. ok is false while
	// the node is still undecided. A decided node may keep participating
	// (e.g. committee members keep serving other nodes after deciding).
	Output() (id int, ok bool)

	// Halted reports that the node will never send another message, so
	// the network can stop early once every alive node has halted.
	Halted() bool
}

// Quiescent is an optional Node extension for large sweeps. Idle
// reports that, in the node's *current* state, every Step call with an
// EMPTY inbox would be a pure no-op — no state change, no output, no
// randomness consumed — at any round, until the node is next stepped.
// The engine then elides such calls entirely. Eliding them is
// observationally identical to making them (they could only have
// returned an empty outbox), so telemetry is bit-identical; the
// interface merely lets a node vouch for that, since the engine cannot
// prove it.
//
// The vouch is about state only. Since only Step changes a node's
// state, an idle node stays idle until it next receives mail, and the
// engine relies on that: a sparse round steps just the nodes that were
// stepped or sent mail the round before. A node whose empty-inbox Step
// means something at some position of a round schedule must therefore
// not report idle in that state. The crash-renaming node is the case in
// point: an empty inbox at the start of a phase is the committee-wipe
// signal that doubles the re-election probability — a state change plus
// a random draw — so it reports idle only once halted. Nodes whose idle
// rounds have side effects (round counters, timers, randomness) must not
// implement Quiescent, or must return false in those states.
type Quiescent interface {
	Idle() bool
}
