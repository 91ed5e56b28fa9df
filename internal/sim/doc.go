// Package sim implements the synchronous message-passing substrate the
// paper's algorithms run on: a fully connected network of n nodes that
// exchange messages in lockstep rounds, an adaptive crash adversary that
// can kill nodes even mid-send, and metrics that account messages, bits,
// and rounds exactly as the paper's complexity statements do.
//
// # Round engine
//
// Within a round, a persistent pool of workers steps contiguous node
// shards behind a barrier and routes messages through slab-backed
// per-node inbox views (a counting sort by sender). Low-traffic rounds
// adaptively collapse onto the coordinator, where barrier handshakes
// would cost more than the round's work; heavy rounds fan out across
// the pool. Either way the observable execution is identical.
//
// # Contracts the packages above rely on
//
// Shared-multicast billing: a message addressed to ToSet(id) — a set
// interned via Sets.InternPhase, or ToAll, which is ToSet(0), the
// universal set [0, n) every run pre-interns — is billed as fan-out wire
// messages (sent-on-the-wire semantics — a crashed recipient still costs
// the sender, as in the paper's model) but the payload is stored once:
// recipients covered by exactly one shared source are bound zero-copy to
// a shared aggregate segment, and the rest receive a per-recipient
// merge. A broadcast is just the multicast to the full link set, so
// every shared target takes this one path. Expansion to individual
// copies happens only under mid-send crash filters and rushing
// previews, in ascending-member order — byte-identical to explicit
// per-recipient sends, which is what a node without a registry emits
// (TestToSetSharedVsEagerFingerprint pins this). Payload
// implementations must therefore be read-only after Send. Delivered To
// is unspecified (a bound view keeps the sender's sentinel); nodes
// identify themselves by their own link index, and From is always the
// true sender.
//
// Quiescence: a node implementing Quiescent vouches, while Idle holds,
// that Step with an empty inbox would send nothing and change no state,
// at any round. The engine then skips the node entirely. Since only Step
// changes state, an idle node stays idle until it gets mail, so a
// coordinator-only round steps just the nodes stepped or mailed the
// round before — per-round work is proportional to the nodes that act
// and the messages delivered, not to n. The contract is one-sided: the
// engine may still step an idle node (e.g. when it has mail), so the
// vouch must be sound, not tight.
//
// Telemetry: WithRoundDigest is the one per-round traffic hook — totals
// and per-kind counts, never the delivered messages themselves — and
// WithRoundEnd runs coordinator hooks after every round's delivery.
//
// Determinism at any worker count: every adversary decision — including
// stateful mid-send crash filters — is evaluated sequentially on the
// coordinator, nodes touch only their own state inside Step, and inbox
// views are delivered sorted by sender. Two runs with equal seeds are
// bit-identical at -workers=1 and -workers=8; the root package's
// determinism tests lock golden fingerprints at both.
//
// # Memory model
//
// Inboxes are views into two alternating per-worker slabs (round parity
// r&1) with generation stamps deciding view validity, so idle nodes
// hold no buffers and the engine's footprint tracks messages in flight,
// not n times the historical maximum. A view delivered in round r is
// valid during round r only; payload boxes written in round r may be
// reused no earlier than round r+2. Network.MemStats reports slab
// footprint; docs/MEMORY.md documents the full lifecycle and the
// scaling model.
package sim
