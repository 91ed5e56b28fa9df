package sim

import (
	"testing"
)

// pingPayload is a trivial test payload.
type pingPayload struct{ size int }

func (pingPayload) Kind() string { return "ping" }
func (p pingPayload) Bits() int  { return p.size }

// echoNode broadcasts pings in rounds 0..sendFor and records everything
// it receives.
type echoNode struct {
	idx, n   int
	rounds   int
	received []Message
	sendFor  int // last round in which the node still sends
}

func (e *echoNode) Step(round int, inbox []Message) Outbox {
	e.received = append(e.received, inbox...)
	e.rounds++
	if round <= e.sendFor {
		return Broadcast(e.idx, e.n, pingPayload{size: 8})
	}
	return nil
}
func (e *echoNode) Output() (int, bool) { return 0, false }
func (e *echoNode) Halted() bool        { return e.rounds > e.sendFor+1 }

func buildEcho(n, sendFor int) ([]*echoNode, []Node) {
	nodes := make([]*echoNode, n)
	simNodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &echoNode{idx: i, n: n, sendFor: sendFor}
		simNodes[i] = nodes[i]
	}
	return nodes, simNodes
}

func TestDeliveryNextRoundSorted(t *testing.T) {
	nodes, simNodes := buildEcho(5, 0)
	nw := NewNetwork(simNodes)
	nw.StepRound()
	for _, node := range nodes {
		if len(node.received) != 0 {
			t.Fatal("messages delivered in the sending round")
		}
	}
	nw.StepRound()
	for i, node := range nodes {
		if len(node.received) != 5 {
			t.Fatalf("node %d received %d", i, len(node.received))
		}
		for j, msg := range node.received {
			if msg.From != j {
				t.Fatalf("inbox not sorted by sender: %v", node.received)
			}
			// Delivered To is unspecified: a recipient bound zero-copy to a
			// shared aggregate sees the sender's sentinel. Anything other
			// than the recipient's own link or a shared sentinel is a
			// routing bug.
			if msg.To != i && msg.To >= 0 {
				t.Fatalf("misrouted message %+v for node %d", msg, i)
			}
		}
	}
}

func TestMetricsAccounting(t *testing.T) {
	_, simNodes := buildEcho(4, 1)
	nw := NewNetwork(simNodes)
	if err := nw.Run(10); err != nil {
		t.Fatal(err)
	}
	m := nw.Metrics()
	// 2 sending rounds × 4 nodes × 4 recipients.
	if m.Messages != 32 || m.HonestMessages != 32 {
		t.Fatalf("messages = %d/%d", m.Messages, m.HonestMessages)
	}
	if m.Bits != 32*8 {
		t.Fatalf("bits = %d", m.Bits)
	}
	if m.MaxMessageBits != 8 {
		t.Fatalf("max = %d", m.MaxMessageBits)
	}
	if m.PerKind["ping"] != 32 {
		t.Fatalf("perKind = %v", m.PerKind)
	}
	if len(m.Kinds()) != 1 || m.Kinds()[0] != "ping" {
		t.Fatalf("kinds = %v", m.Kinds())
	}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestByzantineMetricsExcluded(t *testing.T) {
	_, simNodes := buildEcho(4, 0)
	nw := NewNetwork(simNodes, WithByzantine([]int{1, 3}))
	nw.StepRound()
	m := nw.Metrics()
	if m.Messages != 16 {
		t.Fatalf("messages = %d", m.Messages)
	}
	if m.HonestMessages != 8 {
		t.Fatalf("honest = %d", m.HonestMessages)
	}
}

func TestCrashBeforeSend(t *testing.T) {
	nodes, simNodes := buildEcho(3, 2)
	adv := &Scheduled{orders: map[int][]CrashOrder{0: {{Node: 1}}}}
	nw := NewNetwork(simNodes, WithCrashAdversary(adv))
	nw.StepRound()
	nw.StepRound()
	if nw.Alive(1) {
		t.Fatal("node 1 should be dead")
	}
	if nw.Crashes() != 1 || nw.CrashedAt(1) != 0 {
		t.Fatalf("crash bookkeeping wrong: f=%d at=%d", nw.Crashes(), nw.CrashedAt(1))
	}
	// Node 1 crashed before sending round 0: others got 2 messages.
	for i := 0; i < 3; i++ {
		if i == 1 {
			continue
		}
		if len(nodes[i].received) != 2 {
			t.Fatalf("node %d received %d, want 2", i, len(nodes[i].received))
		}
	}
}

func TestCrashMidSendFilter(t *testing.T) {
	nodes, simNodes := buildEcho(4, 2)
	// Node 2 crashes mid-send in round 0, reaching only node 0.
	adv := &Scheduled{orders: map[int][]CrashOrder{
		0: {{Node: 2, Filter: func(to int) bool { return to == 0 }}},
	}}
	nw := NewNetwork(simNodes, WithCrashAdversary(adv))
	nw.StepRound()
	nw.StepRound()
	counts := map[int]int{}
	for i, node := range nodes {
		for _, msg := range node.received {
			if msg.From == 2 {
				counts[i]++
			}
		}
	}
	if counts[0] != 1 || counts[1] != 0 || counts[3] != 0 {
		t.Fatalf("mid-send filter leaked: %v", counts)
	}
	// The filtered messages never hit the wire: round 0 counts
	// 3 alive × 4 + 1 partial = 13, round 1 adds 3 × 4 = 12.
	if nw.Metrics().Messages != 25 {
		t.Fatalf("messages = %d, want 25", nw.Metrics().Messages)
	}
}

// Scheduled is a local test adversary (the adversary package would be an
// import cycle here).
type Scheduled struct {
	orders map[int][]CrashOrder
}

func (s *Scheduled) Crashes(view View) []CrashOrder { return s.orders[view.Round] }

func TestRunStopsWhenHalted(t *testing.T) {
	_, simNodes := buildEcho(2, 0)
	nw := NewNetwork(simNodes)
	if err := nw.Run(100); err != nil {
		t.Fatal(err)
	}
	if nw.Round() >= 100 {
		t.Fatal("did not stop early")
	}
}

func TestRunRoundLimit(t *testing.T) {
	// sendFor beyond the limit → never halts.
	_, simNodes := buildEcho(2, 1000)
	nw := NewNetwork(simNodes)
	if err := nw.Run(5); err != ErrRoundLimit {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

func TestRoundDigest(t *testing.T) {
	_, simNodes := buildEcho(3, 0)
	var observed []int64
	nw := NewNetwork(simNodes, WithRoundDigest(func(d RoundDigest) {
		observed = append(observed, d.Messages)
	}))
	if err := nw.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(observed) == 0 || observed[0] != 9 {
		t.Fatalf("observed = %v", observed)
	}
}

func TestInvalidLinkPanics(t *testing.T) {
	bad := &badNode{}
	nw := NewNetwork([]Node{bad})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid link")
		}
	}()
	nw.StepRound()
}

type badNode struct{}

func (*badNode) Step(int, []Message) Outbox {
	return Outbox{{To: 99, Payload: pingPayload{size: 1}}}
}
func (*badNode) Output() (int, bool) { return 0, false }
func (*badNode) Halted() bool        { return false }

func TestDeriveSeedStreamsDiffer(t *testing.T) {
	seen := make(map[int64]bool)
	for label := uint64(0); label < 100; label++ {
		s := DeriveSeed(42, label)
		if seen[s] {
			t.Fatalf("label %d repeats a seed", label)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Fatal("different run seeds collide")
	}
	if NewRand(1, 7).Uint64() != NewRand(1, 7).Uint64() {
		t.Fatal("NewRand not deterministic")
	}
}

func TestBroadcastMulticast(t *testing.T) {
	out := Broadcast(2, 4, pingPayload{size: 1})
	if len(out) != 1 || out[0].To != ToAll || out[0].From != 2 {
		t.Fatalf("broadcast not a shared ToAll entry: %v", out)
	}
	out = Multicast(0, []int{1, 3}, pingPayload{size: 1})
	if len(out) != 2 || out[0].To != 1 || out[1].To != 3 {
		t.Fatalf("multicast %v", out)
	}
}

func TestPerNodeLoad(t *testing.T) {
	_, simNodes := buildEcho(3, 0)
	nw := NewNetwork(simNodes)
	nw.StepRound()
	m := nw.Metrics()
	for i := 0; i < 3; i++ {
		if m.PerNodeSent[i] != 3 || m.PerNodeReceived[i] != 3 {
			t.Fatalf("node %d load sent=%d recv=%d", i, m.PerNodeSent[i], m.PerNodeReceived[i])
		}
	}
	if m.MaxNodeSent() != 3 || m.MaxNodeReceived() != 3 {
		t.Fatalf("max load %d/%d", m.MaxNodeSent(), m.MaxNodeReceived())
	}
}

func TestCongestLimit(t *testing.T) {
	_, simNodes := buildEcho(2, 0) // pings of 8 bits
	nw := NewNetwork(simNodes, WithCongestLimit(4))
	nw.StepRound()
	if got := nw.Metrics().OversizeMessages; got != 4 {
		t.Fatalf("oversize = %d, want 4", got)
	}
	_, simNodes = buildEcho(2, 0)
	nw = NewNetwork(simNodes, WithCongestLimit(16))
	nw.StepRound()
	if got := nw.Metrics().OversizeMessages; got != 0 {
		t.Fatalf("oversize = %d, want 0", got)
	}
}

// previewNode records whether it saw current-round messages.
type previewNode struct {
	idx, n  int
	inboxes [][]Message
}

func (p *previewNode) Step(round int, inbox []Message) Outbox {
	cp := append([]Message(nil), inbox...)
	p.inboxes = append(p.inboxes, cp)
	return Broadcast(p.idx, p.n, pingPayload{size: 2})
}
func (p *previewNode) Output() (int, bool) { return 0, false }
func (p *previewNode) Halted() bool        { return true }

func TestRushingPreview(t *testing.T) {
	honest := &previewNode{idx: 0, n: 2}
	rusher := &previewNode{idx: 1, n: 2}
	nw := NewNetwork([]Node{honest, rusher}, WithRushing([]int{1}), WithByzantine([]int{1}))
	nw.StepRound()
	// Round 0: the honest node's broadcast is previewed by the rusher in
	// the same round.
	if got := len(rusher.inboxes[0]); got != 1 {
		t.Fatalf("rusher preview = %d messages, want 1", got)
	}
	if rusher.inboxes[0][0].From != 0 {
		t.Fatalf("preview from %d", rusher.inboxes[0][0].From)
	}
	// The honest node saw nothing in round 0.
	if got := len(honest.inboxes[0]); got != 0 {
		t.Fatalf("honest inbox = %d messages in round 0", got)
	}
	nw.StepRound()
	// Round 1: honest receives both round-0 messages; rusher receives
	// them too, plus the preview of honest's round-1 broadcast.
	if got := len(honest.inboxes[1]); got != 2 {
		t.Fatalf("honest round-1 inbox = %d", got)
	}
	if got := len(rusher.inboxes[1]); got != 3 {
		t.Fatalf("rusher round-1 inbox = %d (2 delivered + 1 preview)", got)
	}
}
