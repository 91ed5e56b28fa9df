package sim

// View is the adversary's window into the execution. The crash adversary
// of Section 1 ("Eve") is adaptive: it may use the full execution history
// up to the current moment to decide which nodes crash. The view exposes
// liveness, the current round, and read-only access to node state via the
// Peek callback installed by the harness.
//
// The Alive slice is a scratch buffer the engine reuses between rounds:
// inspect it during Crashes, do not retain it.
type View struct {
	// Round is the round about to execute (0-based).
	Round int
	// Alive reports, per link index, whether the node is still alive at
	// the start of the round.
	Alive []bool
	// Peek returns an algorithm-specific snapshot of a node's state
	// (e.g. whether it is currently a committee member). It may be nil
	// when the harness installs no state exporter.
	Peek func(node int) any
}

// SendFilter decides, for a node crashed mid-send, which of its outgoing
// messages in the crash round still get delivered. The paper explicitly
// allows a node to crash "even in the middle of sending a message", so a
// crashed sender may reach an arbitrary subset of its recipients.
type SendFilter func(to int) bool

// CrashOrder instructs the network to crash one node in the current round.
type CrashOrder struct {
	// Node is the link index of the node to crash.
	Node int
	// Filter selects which of the node's round-r messages are still
	// delivered. A nil filter crashes the node before it sends anything
	// (the node's Step is not even executed this round).
	Filter SendFilter
}

// CrashAdversary is the adaptive crash adversary interface. Crashes is
// consulted at the start of every round, before any node steps.
type CrashAdversary interface {
	Crashes(view View) []CrashOrder
}

// NoCrashes is a CrashAdversary that never crashes anyone.
type NoCrashes struct{}

var _ CrashAdversary = NoCrashes{}

// Crashes implements CrashAdversary.
func (NoCrashes) Crashes(View) []CrashOrder { return nil }
