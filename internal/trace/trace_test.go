package trace

import (
	"strings"
	"testing"

	"renaming/internal/sim"
)

type tp struct{ kind string }

func (p tp) Kind() string { return p.kind }
func (tp) Bits() int      { return 4 }

// record feeds r one round digest of the given message kinds, 4 bits
// each, through a per-kind map that is cleared afterwards — the engine
// reuses its map between rounds, so the recorder must copy it.
func record(r *Recorder, round int, kinds ...string) {
	perKind := make(map[string]int64)
	for _, k := range kinds {
		perKind[k]++
	}
	r.ObserveDigest(sim.RoundDigest{Round: round, Messages: int64(len(kinds)), Bits: 4 * int64(len(kinds)), PerKind: perKind})
	clear(perKind)
}

func TestRecorderSummaries(t *testing.T) {
	r := NewRecorder()
	record(r, 0, "a", "a", "b")
	record(r, 1)
	record(r, 2, "b")
	rounds := r.Rounds()
	if len(rounds) != 3 {
		t.Fatalf("rounds = %d", len(rounds))
	}
	if rounds[0].Messages != 3 || rounds[0].Bits != 12 || rounds[0].ByKind["a"] != 2 || rounds[0].ByKind["b"] != 1 {
		t.Fatalf("round 0 = %+v", rounds[0])
	}
	if len(rounds[1].ByKind) != 0 {
		t.Fatalf("quiet round recorded kinds: %+v", rounds[1])
	}
	busiest, ok := r.BusiestRound()
	if !ok || busiest.Round != 0 {
		t.Fatalf("busiest = %+v", busiest)
	}
}

// loudNode sends one message per round to a fixed peer for the first
// sendFor rounds, then goes quiet (without halting).
type loudNode struct{ peer, sendFor int }

func (l *loudNode) Step(round int, inbox []sim.Message) sim.Outbox {
	if round < l.sendFor {
		return sim.Outbox{{To: l.peer, Payload: tp{kind: "a"}}}
	}
	return nil
}
func (l *loudNode) Output() (int, bool) { return 0, false }
func (l *loudNode) Halted() bool        { return false }

type quietNode struct{}

func (quietNode) Step(int, []sim.Message) sim.Outbox { return nil }
func (quietNode) Output() (int, bool)                { return 0, false }
func (quietNode) Halted() bool                       { return false }

// crashAt crashes one node before it sends in a given round.
type crashAt struct{ node, round int }

func (c crashAt) Crashes(v sim.View) []sim.CrashOrder {
	if v.Round == c.round {
		return []sim.CrashOrder{{Node: c.node}}
	}
	return nil
}

// TestSentOnTheWireSemantics pins the documented recording contract
// against the real engine: every executed round is recorded — fully
// quiet rounds included, so Summary().Rounds equals the network's round
// count — and a message addressed to an already-crashed recipient still
// counts, because the sender paid for it.
func TestSentOnTheWireSemantics(t *testing.T) {
	r := NewRecorder()
	nodes := []sim.Node{&loudNode{peer: 1, sendFor: 2}, quietNode{}}
	nw := sim.NewNetwork(nodes,
		sim.WithCrashAdversary(crashAt{node: 1, round: 0}),
		sim.WithRoundDigest(r.ObserveDigest))
	defer nw.Close()
	for i := 0; i < 4; i++ {
		nw.StepRound()
	}
	rounds := r.Rounds()
	if len(rounds) != 4 || r.Summary().Rounds != 4 || nw.Round() != 4 {
		t.Fatalf("recorded %d rounds, summary %d, network %d — want all 4",
			len(rounds), r.Summary().Rounds, nw.Round())
	}
	// Node 1 is dead from round 0, yet both of node 0's messages to it
	// were put on the wire and must appear in the trace and the metrics.
	if rounds[0].Messages != 1 || rounds[1].Messages != 1 {
		t.Fatalf("messages to a crashed recipient dropped from the trace: %+v", rounds[:2])
	}
	if rounds[2].Messages != 0 || rounds[3].Messages != 0 {
		t.Fatalf("quiet rounds recorded traffic: %+v", rounds[2:])
	}
	if nw.Metrics().Messages != 2 {
		t.Fatalf("metrics counted %d messages, want 2 (sender pays)", nw.Metrics().Messages)
	}
}

func TestBusiestEmpty(t *testing.T) {
	if _, ok := NewRecorder().BusiestRound(); ok {
		t.Fatal("empty recorder reported a busiest round")
	}
}

func TestTimelineElidesRepeats(t *testing.T) {
	r := NewRecorder()
	record(r, 0, "x")
	for round := 1; round < 6; round++ {
		record(r, round, "y", "y")
	}
	record(r, 6)
	var b strings.Builder
	if err := r.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "x×1") || !strings.Contains(out, "y×2") {
		t.Fatalf("timeline missing shapes:\n%s", out)
	}
	if !strings.Contains(out, "4 more rounds") {
		t.Fatalf("timeline did not elide repeats:\n%s", out)
	}
	if !strings.Contains(out, "(quiet)") {
		t.Fatalf("quiet round missing:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	record(r, 0, "a", "b")
	record(r, 1, "b")
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), b.String())
	}
	if lines[0] != "round,messages,bits,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,2,8,1,1" || lines[2] != "1,1,4,0,1" {
		t.Fatalf("rows = %q, %q", lines[1], lines[2])
	}
}

func TestSummary(t *testing.T) {
	r := NewRecorder()
	if s := r.Summary(); s != (Summary{}) {
		t.Fatalf("empty recorder summary = %+v", s)
	}
	record(r, 0, "a", "a")
	record(r, 1)
	record(r, 2, "b", "b", "b", "b")
	s := r.Summary()
	if s.Rounds != 3 || s.BusiestRound != 2 || s.BusiestMessages != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.PeakBits != 16 {
		t.Fatalf("peak bits = %d", s.PeakBits)
	}
	if s.MeanMessages != 2 {
		t.Fatalf("mean = %v", s.MeanMessages)
	}
	if s.StddevMessages <= 0 {
		t.Fatalf("stddev = %v", s.StddevMessages)
	}
}
