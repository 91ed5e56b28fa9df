package sim

import (
	"errors"
	"runtime"
	"unsafe"
)

// ErrRoundLimit is returned by Network.Run when the round budget is
// exhausted before every alive node halted.
var ErrRoundLimit = errors.New("sim: round limit exceeded before all nodes halted")

// Network drives a set of nodes through synchronous rounds. It is a
// handle over the round engine; Close releases the engine's worker pool
// (a finalizer covers handles that are dropped without Close, so leaking
// one costs deferred goroutines, not correctness).
type Network struct {
	*engine

	// pool, when non-nil, is the Pool this handle's engine is leased
	// from: Close returns the lease instead of killing the workers.
	// released makes that hand-back once-only per handle, so a late
	// finalizer cannot un-lease an engine a newer handle holds.
	pool     *Pool
	released bool
}

// Option configures a Network.
type Option func(*engine)

// WithCrashAdversary installs the adaptive crash adversary consulted at
// the start of every round.
func WithCrashAdversary(adv CrashAdversary) Option {
	return func(e *engine) { e.adv = adv }
}

// WithByzantine marks the given link indices as Byzantine so metrics can
// separate honest traffic (the algorithm's cost) from adversarial noise.
func WithByzantine(links []int) Option {
	return func(e *engine) {
		for _, i := range links {
			if i >= 0 && i < len(e.byzantine) {
				e.byzantine[i] = true
			}
		}
	}
}

// WithPeek installs a state exporter that the adversary's View.Peek
// forwards to, giving adaptive adversaries visibility into node state.
func WithPeek(peek func(node int) any) Option {
	return func(e *engine) { e.peek = peek }
}

// WithRushing marks links as *rushing* adversaries: each round they step
// after every other node and their inbox additionally contains a preview
// of the messages honest nodes addressed to them in the *current* round —
// the standard synchronous-model power of a Byzantine node that waits for
// everyone else before speaking. Rushing nodes do not preview each other.
func WithRushing(links []int) Option {
	return func(e *engine) {
		for _, i := range links {
			if i >= 0 && i < len(e.rushing) {
				e.rushing[i] = true
			}
		}
	}
}

// WithCongestLimit installs a CONGEST-model bit budget: honest messages
// larger than bits are counted in Metrics.OversizeMessages (they are
// still delivered — the simulator reports violations rather than
// truncating protocol state).
func WithCongestLimit(bits int) Option {
	return func(e *engine) { e.metrics.CongestLimit = bits }
}

// RoundDigest is the rolled-up communication summary of one round, as
// handed to a WithRoundDigest callback: totals only, never per-node
// arrays, so streaming consumers stay O(1) in n.
type RoundDigest struct {
	// Round is the 0-based round the digest describes.
	Round int
	// Messages and Bits are the wire totals of the round (all senders,
	// honest and Byzantine), matching the per-round deltas of
	// Metrics.Messages and Metrics.Bits.
	Messages int64
	Bits     int64
	// PerKind counts the round's messages by payload kind. The map is
	// reused between rounds: read it during the callback, do not retain.
	PerKind map[string]int64
}

// WithRoundDigest installs a per-round callback invoked with the round's
// rolled-up communication summary, after metrics are folded — every
// executed round, quiet ones included. It is the engine's one traffic
// telemetry hook: it never materializes the round's delivered messages,
// so it costs O(kinds) per round at any n; see docs/MEMORY.md.
func WithRoundDigest(fn func(RoundDigest)) Option {
	return func(e *engine) { e.digest = fn }
}

// WithRoundEnd registers a hook invoked on the coordinator at the end of
// every round, after delivery and metric folding. Hooks run sequentially
// in registration order and never concurrently with node steps — the
// natural place to reset per-round caches such as auth.Memo.
func WithRoundEnd(fn func()) Option {
	return func(e *engine) { e.roundEnd = append(e.roundEnd, fn) }
}

// WithEngineWorkers pins the engine's worker count (shards) instead of
// the GOMAXPROCS default. Results are bit-identical at every setting —
// the determinism tests exercise exactly that — so this is a performance
// and testing knob, never a semantics knob.
func WithEngineWorkers(p int) Option {
	return func(e *engine) { e.reqWorkers = p }
}

// NewNetwork creates a network over the given nodes. Node i is reachable
// on link i from every node, matching the paper's complete-network model.
//
// The returned Network owns a worker pool; call Close when done with it.
func NewNetwork(nodes []Node, opts ...Option) *Network {
	e := newEngine(nodes)
	for _, opt := range opts {
		opt(e)
	}
	e.finishSetup()
	nw := &Network{engine: e}
	// Workers reference only the inner engine, so a dropped handle stays
	// collectable and the finalizer reclaims the pool.
	runtime.SetFinalizer(nw, (*Network).Close)
	return nw
}

// Close releases the engine: a pooled handle returns its lease to the
// Pool (workers stay parked for the next Acquire), a standalone handle
// shuts its worker pool down. Idempotent; the Network must not be
// stepped afterwards. Close also drops the handle's finalizer: a pending
// one would keep the engine, its slabs and its arenas reachable through
// one more GC cycle after the handle is dropped.
func (nw *Network) Close() {
	runtime.SetFinalizer(nw, nil)
	if nw.pool != nil {
		if !nw.released {
			nw.released = true
			nw.pool.release()
		}
		return
	}
	nw.engine.close()
}

// Metrics exposes the accumulated communication metrics.
func (nw *Network) Metrics() *Metrics { return nw.metrics }

// EngineMemStats reports the engine's inbox-slab footprint, for memory
// benchmarks and the docs/MEMORY.md walkthrough.
type EngineMemStats struct {
	// InboxSlabBytes is the total capacity, in bytes, of the engine's
	// message arenas (both parities, all workers).
	InboxSlabBytes int64
	// InboxSlabFills counts slab refills across the run — one per
	// (round, worker-with-traffic) pair.
	InboxSlabFills int64
}

// MemStats returns the engine's current inbox-slab footprint, summed
// over the per-worker individual slabs, the shared-aggregate slabs, and
// the merge slabs (both parities each).
func (nw *Network) MemStats() EngineMemStats {
	var ms EngineMemStats
	msgSize := int64(unsafe.Sizeof(Message{}))
	for par := range nw.slabs {
		for w := range nw.slabs[par] {
			s := &nw.slabs[par][w]
			ms.InboxSlabBytes += int64(cap(s.buf)) * msgSize
			ms.InboxSlabFills += int64(s.fills)
		}
		for w := range nw.mergeSlabs[par] {
			s := &nw.mergeSlabs[par][w]
			ms.InboxSlabBytes += int64(cap(s.buf)) * msgSize
			ms.InboxSlabFills += int64(s.fills)
		}
		s := &nw.aggSlabs[par]
		ms.InboxSlabBytes += int64(cap(s.buf)) * msgSize
		ms.InboxSlabFills += int64(s.fills)
	}
	return ms
}

// Alive reports whether node i is alive.
func (nw *Network) Alive(i int) bool { return nw.alive[i] }

// AliveCount returns the number of alive nodes.
func (nw *Network) AliveCount() int {
	count := 0
	for _, a := range nw.alive {
		if a {
			count++
		}
	}
	return count
}

// Crashes returns the number of nodes crashed so far — the paper's f, the
// *actual* number of failures during execution.
func (nw *Network) Crashes() int { return len(nw.alive) - nw.AliveCount() }

// CrashedAt returns the round node i crashed in, or -1 if it is alive.
func (nw *Network) CrashedAt(i int) int { return nw.crashedAt[i] }

// Round returns the number of rounds executed so far.
func (nw *Network) Round() int { return nw.round }

// Run executes rounds until every alive node reports Halted, or until
// maxRounds have executed, in which case it returns ErrRoundLimit.
func (nw *Network) Run(maxRounds int) error {
	for nw.round < maxRounds {
		if nw.allHalted() {
			return nil
		}
		nw.StepRound()
	}
	if nw.allHalted() {
		return nil
	}
	return ErrRoundLimit
}

func (nw *Network) allHalted() bool {
	for i, node := range nw.nodes {
		if nw.alive[i] && !node.Halted() {
			return false
		}
	}
	return true
}
