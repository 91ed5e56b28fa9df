package sim

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// pongPayload is a second payload kind so the per-kind run-length cache
// sees kind transitions.
type pongPayload struct{ size int }

func (pongPayload) Kind() string { return "pong" }
func (p pongPayload) Bits() int  { return p.size }

// detNode is a deterministic chaotic node: its state is a hash of every
// inbox it has seen, and its outbox (recipients, sizes, kinds) is a pure
// function of that state. Any deviation in delivery order, filtering, or
// preview content diverges the state hash and cascades.
type detNode struct {
	idx, n int
	state  uint64
}

func (d *detNode) Step(round int, inbox []Message) Outbox {
	h := d.state*1099511628211 + uint64(round)
	for _, msg := range inbox {
		h = (h ^ uint64(msg.From)) * 1099511628211
		h = (h ^ uint64(msg.Payload.Bits())) * 1099511628211
	}
	d.state = h
	var out Outbox
	fan := int(h%5) + 1
	for k := 0; k < fan; k++ {
		to := int((h >> (4 * k)) % uint64(d.n))
		size := int((h>>(3*k))%40) + 1
		if k%2 == 0 {
			out = append(out, Message{To: to, Payload: pingPayload{size: size}})
		} else {
			out = append(out, Message{To: to, Payload: pongPayload{size: size}})
		}
	}
	return out
}
func (d *detNode) Output() (int, bool) { return int(d.state), true }
func (d *detNode) Halted() bool        { return false }

// sharedRNGAdversary crashes two nodes per round in rounds 2..9, giving
// the first a mid-send filter that memoizes per-recipient coin flips from
// a *shared* rng — the statefulness pattern of adversary.randomHalfFilter
// that forces filter evaluation into a deterministic sequential order.
type sharedRNGAdversary struct{ rng *rand.Rand }

func (a *sharedRNGAdversary) Crashes(v View) []CrashOrder {
	if v.Round < 2 || v.Round > 9 {
		return nil
	}
	var orders []CrashOrder
	for i := 0; len(orders) < 2 && i < len(v.Alive); i++ {
		idx := (v.Round*7 + i*13) % len(v.Alive)
		if !v.Alive[idx] {
			continue
		}
		order := CrashOrder{Node: idx}
		if len(orders) == 0 {
			order.Filter = memoFilter(a.rng)
		}
		orders = append(orders, order)
	}
	return orders
}

// memoFilter is a mid-send filter that flips one coin from the shared
// rng per recipient, the first time it is asked, and remembers it.
func memoFilter(rng *rand.Rand) SendFilter {
	decided := make(map[int]bool)
	return func(to int) bool {
		if v, ok := decided[to]; ok {
			return v
		}
		keep := rng.Intn(2) == 0
		decided[to] = keep
		return keep
	}
}

// runDetScenario executes a fixed adversarial scenario (crashes with
// shared-rng mid-send filters, Byzantine and rushing links, a CONGEST
// budget, a round-end wire recorder) at the given engine worker count
// and returns a fingerprint of everything observable: the per-round
// wire stream, final node states, crash schedule, and every metric.
func runDetScenario(t *testing.T, workers int) string {
	t.Helper()
	const n = 48
	nodes := make([]*detNode, n)
	simNodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &detNode{idx: i, n: n, state: uint64(i) + 1}
		simNodes[i] = nodes[i]
	}
	wire := fnv.New64a()
	var nw *Network
	nw = NewNetwork(simNodes,
		WithCrashAdversary(&sharedRNGAdversary{rng: rand.New(rand.NewSource(42))}),
		WithByzantine([]int{3, 17, 31}),
		WithRushing([]int{3, 17}),
		WithCongestLimit(24),
		WithEngineWorkers(workers),
		WithRoundEnd(func() { writeDelivered(wire, nw.engine) }))
	defer nw.Close()
	for r := 0; r < 16; r++ {
		nw.StepRound()
	}
	m := nw.Metrics()
	fp := fmt.Sprintf("wire=%x %s honest=%d/%d oversize=%d sent=%v recv=%v",
		wire.Sum64(), m, m.HonestMessages, m.HonestBits, m.OversizeMessages,
		m.PerNodeSent, m.PerNodeReceived)
	for i := range nodes {
		fp += fmt.Sprintf(" s%d=%x@%d", i, nodes[i].state, nw.CrashedAt(i))
	}
	return fp
}

// writeDelivered appends the round's delivered stream to w, rebuilt from
// the engine's inbox tables at round end: every recipient's freshly
// filled view (generation stamp of the next round), recipients
// ascending, each inbox in delivery order. Recipients are written by
// index — a zero-copy bound view keeps the sender's shared To sentinel.
func writeDelivered(w io.Writer, e *engine) {
	fmt.Fprintf(w, "r%d:", e.round)
	gen := uint32(e.round) + 1
	for to, inbox := range e.nextInb {
		if e.nextGen[to] != gen {
			continue
		}
		for _, msg := range inbox {
			fmt.Fprintf(w, "%d>%d/%s/%d;", msg.From, to, msg.Payload.Kind(), msg.Payload.Bits())
		}
	}
}

// TestEngineDeterministicAcrossWorkers is the tentpole safety net: the
// sharded engine must produce bit-identical executions at every worker
// count, including stateful mid-send crash filters, rushing previews,
// and the full metrics fold.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	want := runDetScenario(t, 1)
	for _, p := range []int{2, 3, 5, 8, 64} {
		if got := runDetScenario(t, p); got != want {
			t.Fatalf("workers=%d diverged from workers=1:\n got %s\nwant %s", p, got, want)
		}
	}
}

// midSendOrderAdversary crashes three nodes mid-send in each of rounds
// 2..7, every filter a memoFilter over one shared rng, and returns the
// orders sorted by node, descending or ascending.
type midSendOrderAdversary struct {
	rng *rand.Rand
	asc bool
}

func (a *midSendOrderAdversary) Crashes(v View) []CrashOrder {
	if v.Round < 2 || v.Round > 7 {
		return nil
	}
	var orders []CrashOrder
	for i := 0; len(orders) < 3 && i < len(v.Alive); i++ {
		if idx := (v.Round*11 + i*7) % len(v.Alive); v.Alive[idx] {
			orders = append(orders, CrashOrder{Node: idx, Filter: memoFilter(a.rng)})
		}
	}
	slices.SortFunc(orders, func(x, y CrashOrder) int {
		if a.asc {
			return cmp.Compare(x.Node, y.Node)
		}
		return cmp.Compare(y.Node, x.Node)
	})
	return orders
}

// runMidSendOrder runs detNodes (one of them rushing) against a
// midSendOrderAdversary and returns a hash of every delivered message.
func runMidSendOrder(workers int, asc bool) uint64 {
	const n = 32
	simNodes := make([]Node, n)
	for i := range simNodes {
		simNodes[i] = &detNode{idx: i, n: n, state: uint64(i) + 1}
	}
	wire := fnv.New64a()
	var nw *Network
	nw = NewNetwork(simNodes,
		WithCrashAdversary(&midSendOrderAdversary{rng: rand.New(rand.NewSource(7)), asc: asc}),
		WithByzantine([]int{9}),
		WithRushing([]int{9}),
		WithEngineWorkers(workers),
		WithRoundEnd(func() { writeDelivered(wire, nw.engine) }))
	defer nw.Close()
	for r := 0; r < 10; r++ {
		nw.StepRound()
	}
	return wire.Sum64()
}

// TestMidSendFilterOrder: filters that share a memoizing rng decide
// which messages survive by the order they are called in. The engine
// calls them in ascending node order, so the adversary's own order of
// the crashes changes no delivered message.
func TestMidSendFilterOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if asc, desc := runMidSendOrder(workers, true), runMidSendOrder(workers, false); asc != desc {
			t.Errorf("workers=%d: descending crash orders delivered %x, ascending %x", workers, desc, asc)
		}
	}
}

// TestEngineWorkerClamp checks that worker counts beyond n (or absurd
// values) clamp to a full shard cover: every node belongs to exactly one
// shard and the simulation still runs.
func TestEngineWorkerClamp(t *testing.T) {
	_, simNodes := buildEcho(3, 0)
	nw := NewNetwork(simNodes, WithEngineWorkers(16))
	defer nw.Close()
	if nw.workers != 3 {
		t.Fatalf("workers = %d, want clamp to n = 3", nw.workers)
	}
	covered := 0
	for w := 0; w < nw.workers; w++ {
		covered += nw.shardHi[w] - nw.shardLo[w]
	}
	if covered != 3 {
		t.Fatalf("shards cover %d nodes, want 3", covered)
	}
	nw.StepRound()
	nw.StepRound()
	if nw.Metrics().Messages != 9 {
		t.Fatalf("messages = %d, want 9", nw.Metrics().Messages)
	}
}

// TestCloseIdempotent checks that Close can be called repeatedly (defer +
// finalizer both run) without panicking or deadlocking.
func TestCloseIdempotent(t *testing.T) {
	_, simNodes := buildEcho(4, 0)
	nw := NewNetwork(simNodes, WithEngineWorkers(2))
	nw.StepRound()
	nw.Close()
	nw.Close()
}

// TestClosedNetworkFreesEngine pins that a closed, dropped Network lets
// its engine go at the next GC. A finalizer still set on the handle
// would keep the handle, and through it the engine with its slabs and
// arenas, reachable until the GC after the finalizer ran. One worker
// spawns no goroutine, so nothing else holds the engine.
func TestClosedNetworkFreesEngine(t *testing.T) {
	freed := closeAndDrop()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(time.Second):
		t.Fatal("the engine of a closed, dropped Network survived a GC")
	}
}

// closeAndDrop builds, steps and closes a 1-worker network and returns a
// channel closed when its engine is collected; the handle dies with this
// frame.
func closeAndDrop() <-chan struct{} {
	freed := make(chan struct{})
	_, simNodes := buildEcho(4, 0)
	nw := NewNetwork(simNodes, WithEngineWorkers(1))
	runtime.SetFinalizer(nw.engine, func(*engine) { close(freed) })
	nw.StepRound()
	nw.Close()
	return freed
}

// TestInvalidLinkPanicsParallel mirrors TestInvalidLinkPanics at a
// multi-worker count: a worker-shard panic must propagate to the
// StepRound caller, not kill the process from a bare goroutine.
func TestInvalidLinkPanicsParallel(t *testing.T) {
	nodes := []Node{&badNode{}, &badNode{}, &badNode{}, &badNode{}}
	nw := NewNetwork(nodes, WithEngineWorkers(4))
	defer nw.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid link")
		}
	}()
	nw.StepRound()
}

// countingNode counts every Idle and Step call into a shared counter.
// A node with a partner ping-pongs with it: the starter sends in round 0,
// and each side answers every message it receives. Everyone else only
// ever answers mail, and gets none.
type countingNode struct {
	calls   *int
	partner int
	starter bool
	started bool
}

func (c *countingNode) Idle() bool {
	*c.calls++
	return !c.starter || c.started
}

func (c *countingNode) Step(round int, inbox []Message) Outbox {
	*c.calls++
	if c.starter && !c.started {
		c.started = true
		return Outbox{{To: c.partner, Payload: pingPayload{size: 1}}}
	}
	if len(inbox) > 0 {
		return Outbox{{To: c.partner, Payload: pingPayload{size: 1}}}
	}
	return nil
}
func (c *countingNode) Output() (int, bool) { return 0, false }
func (c *countingNode) Halted() bool        { return false }

// TestSparseRoundWorkFlatInN pins the sparse step walk: with four nodes
// ping-ponging and everyone else idle, the Idle and Step calls of a
// coordinator-only round count only the nodes stepped or mailed the
// round before, so from round 2 on they are the same at n = 256 and at
// n = 4096.
func TestSparseRoundWorkFlatInN(t *testing.T) {
	perRound := func(n int) []int {
		calls := 0
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &countingNode{calls: &calls, partner: -1}
		}
		for _, pair := range [][2]int{{1, n / 2}, {n - 1, 7}} {
			nodes[pair[0]] = &countingNode{calls: &calls, partner: pair[1], starter: true}
			nodes[pair[1]] = &countingNode{calls: &calls, partner: pair[0]}
		}
		nw := NewNetwork(nodes, WithEngineWorkers(1))
		defer nw.Close()
		var counts []int
		for r := 0; r < 12; r++ {
			calls = 0
			nw.StepRound()
			counts = append(counts, calls)
		}
		if got := nw.Metrics().Messages; got != 24 {
			t.Fatalf("n=%d: %d messages, want 24 (two pairs, one message each per round)", n, got)
		}
		return counts
	}
	small, large := perRound(256), perRound(4096)
	for r := 2; r < len(small); r++ {
		if small[r] != large[r] {
			t.Fatalf("round %d: %d Idle+Step calls at n=256, %d at n=4096 (per round: %v vs %v)", r, small[r], large[r], small, large)
		}
	}
}

// replyNode is idle until mailed and then answers the first sender of
// its inbox; with at >= 0 it instead broadcasts once, at round at, and
// ignores its mail.
type replyNode struct {
	at   int
	sent bool
}

func (m *replyNode) Idle() bool { return m.at < 0 || m.sent }

func (m *replyNode) Step(round int, inbox []Message) Outbox {
	if m.at >= 0 {
		if m.sent || round < m.at {
			return nil
		}
		m.sent = true
		return Outbox{{To: ToAll, Payload: pingPayload{size: 1}}}
	}
	if len(inbox) > 0 {
		return Outbox{{To: inbox[0].From, Payload: pingPayload{size: 1}}}
	}
	return nil
}
func (m *replyNode) Output() (int, bool) { return 0, false }
func (m *replyNode) Halted() bool        { return false }

// TestSparseWalkStepsSharedRecipients: a shared broadcast reaches idle
// nodes through the aggregate path, which the recipient list does not
// record, so the round after it must step every node. All n-1 idle
// nodes answer the broadcast, at every worker count.
func TestSparseWalkStepsSharedRecipients(t *testing.T) {
	const n, at = 64, 3
	for _, workers := range []int{1, 8} {
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &replyNode{at: -1}
		}
		nodes[5] = &replyNode{at: at}
		nw := NewNetwork(nodes, WithEngineWorkers(workers))
		for r := 0; r < at+4; r++ {
			nw.StepRound()
		}
		nw.Close()
		m := nw.Metrics()
		if m.Messages != 2*n-1 || m.PerNodeReceived[5] != n {
			t.Fatalf("workers=%d: %d messages, broadcaster received %d; want %d and %d",
				workers, m.Messages, m.PerNodeReceived[5], 2*n-1, n)
		}
	}
}
