package sim

import (
	"fmt"
	"strings"
	"testing"
)

// castNode is the ToSet property-test node: depending on its role it
// emits shared multicasts through the interned-set registry, shared
// broadcasts, explicit unicasts, or a mixed outbox of both shared kinds.
// An eager node declines the registry, so its multicasts take the
// explicit Multicast fallback every SetUser keeps. Every node records
// what it receives, keyed by round, so runs can be fingerprinted and
// compared across representations and worker counts.
type castNode struct {
	idx, n  int
	eager   bool
	sets    *Sets
	sendFor int
	round   int
	// log is node-owned (Step runs concurrently across workers); the
	// test concatenates the per-node logs in link order after the run.
	log strings.Builder

	setKey  uint64 // group id for InternPhase keying; 0 = not a set sender
	members []int  // ToSet target set (ascending)
	toAllOn func(round int) bool
	unicast []int // explicit unicast targets
}

func (c *castNode) UseSets(reg *Sets) {
	if !c.eager {
		c.sets = reg
	}
}

func (c *castNode) Step(round int, inbox []Message) Outbox {
	for _, msg := range inbox {
		// Delivered To is unspecified (bound views keep the sender's
		// sentinel), so the fingerprint records only sender and content.
		fmt.Fprintf(&c.log, "r%d n%d<-%d:%s/%d;", round, c.idx, msg.From, msg.Payload.Kind(), msg.Payload.Bits())
	}
	c.round = round
	if round > c.sendFor {
		return nil
	}
	var out Outbox
	payload := pingPayload{size: 8 + c.idx}
	if c.setKey != 0 {
		out = append(out, c.castSet(round, payload)...)
	}
	if c.toAllOn != nil && c.toAllOn(round) {
		out = append(out, Message{From: c.idx, To: ToAll, Payload: payload})
	}
	for _, to := range c.unicast {
		out = append(out, Message{From: c.idx, To: to, Payload: payload})
	}
	return out
}

// castSet emits the node's multicast: one shared ToSet entry when the
// registry interned the set, the eagerly-expanded equivalent otherwise.
func (c *castNode) castSet(round int, payload Payload) Outbox {
	if c.sets != nil {
		if id, ok := c.sets.InternPhase(uint64(round)<<8|c.setKey, c.members); ok {
			return Outbox{{From: c.idx, To: ToSet(id), Payload: payload}}
		}
	}
	return Multicast(c.idx, c.members, payload)
}

func (c *castNode) Output() (int, bool) { return 0, false }
func (c *castNode) Halted() bool        { return c.round > c.sendFor+1 }

// runCastFleet executes the mixed-traffic scenario and returns its full
// delivery fingerprint plus billed totals. The scenario covers every
// shared-aggregate code path: zero-copy binds (recipients covered by one
// set and nothing else), k-way merges (recipients in overlapping sets,
// explicit unicasts on top, periodic ToAll rounds), mixed outbox
// pre-expansion, mid-send crash filtering of a ToSet sender, and a
// rushing Byzantine previewer inside a target set.
func runCastFleet(t *testing.T, workers int, eager bool) (string, int64, int64) {
	t.Helper()
	const n = 12
	nodes := make([]*castNode, n)
	simNodes := make([]Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = &castNode{idx: i, n: n, eager: eager, sendFor: 4}
		simNodes[i] = nodes[i]
	}
	// Group A (senders 0-3) multicasts to {4,5,6}; group B (senders 4-6)
	// to {5,8,9}. Node 5 sits in both sets (merge); nodes 4 and 6 are
	// covered by A alone (bind on ToAll-free rounds); node 7 unicasts
	// into the overlap; node 8 broadcasts every third round (classify
	// everyone); node 10 emits the mixed ToSet+ToAll outbox; node 9 is a
	// rushing Byzantine member of set B.
	for i := 0; i <= 3; i++ {
		nodes[i].setKey, nodes[i].members = 1, []int{4, 5, 6}
	}
	for i := 4; i <= 6; i++ {
		nodes[i].setKey, nodes[i].members = 2, []int{5, 8, 9}
	}
	nodes[7].unicast = []int{5, 6, 10}
	nodes[8].toAllOn = func(round int) bool { return round%3 == 0 }
	nodes[10].setKey, nodes[10].members = 3, []int{0, 1}
	nodes[10].toAllOn = func(round int) bool { return round%2 == 1 }

	adv := &Scheduled{orders: map[int][]CrashOrder{
		// Round 1: set-A sender 1 crashes mid-send, reaching only even
		// links — the ToSet entry must expand through the filter.
		1: {{Node: 1, Filter: func(to int) bool { return to%2 == 0 }}},
		// Round 2: set-B sender 4 crashes before sending.
		2: {{Node: 4}},
	}}
	nw := NewNetwork(simNodes,
		WithCrashAdversary(adv),
		WithByzantine([]int{9}),
		WithRushing([]int{9}),
		WithEngineWorkers(workers),
	)
	defer nw.Close()
	if err := nw.Run(8); err != nil {
		t.Fatalf("workers=%d eager=%v: %v", workers, eager, err)
	}
	m := nw.Metrics()
	var log strings.Builder
	for i := 0; i < n; i++ {
		log.WriteString(nodes[i].log.String())
	}
	fmt.Fprintf(&log, "msgs=%d bits=%d honest=%d/%d kinds=%v;", m.Messages, m.Bits, m.HonestMessages, m.HonestBits, m.PerKind)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&log, "load%d=%d/%d;", i, m.PerNodeSent[i], m.PerNodeReceived[i])
	}
	return log.String(), m.Messages, m.Bits
}

// TestToSetSharedVsEagerFingerprint pins that the shared ToSet
// representation is observationally invisible: the complete delivery
// fingerprint (every node's received senders/contents in order, billed
// totals, per-node load) matches the eagerly-expanded run byte for
// byte, at 1 worker (coordinator-only paths) and 4 workers (sharded
// count/scatter/merge with cross-worker segments), under mid-send
// filters and a rushing previewer.
func TestToSetSharedVsEagerFingerprint(t *testing.T) {
	base, msgs, bits := runCastFleet(t, 1, false)
	if msgs == 0 || bits == 0 {
		t.Fatal("scenario produced no traffic")
	}
	for _, workers := range []int{1, 4} {
		for _, eager := range []bool{false, true} {
			if workers == 1 && !eager {
				continue
			}
			got, gotMsgs, gotBits := runCastFleet(t, workers, eager)
			if gotMsgs != msgs || gotBits != bits {
				t.Errorf("workers=%d eager=%v: billed %d msgs/%d bits, want %d/%d",
					workers, eager, gotMsgs, gotBits, msgs, bits)
			}
			if got != base {
				t.Errorf("workers=%d eager=%v: delivery fingerprint diverges from shared 1-worker run", workers, eager)
			}
		}
	}
}
