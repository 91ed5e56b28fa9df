package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Metrics accumulates the communication-complexity measures the paper
// reports: total messages, total bits, rounds executed, and the largest
// single message observed (to validate the O(log N) message-size claim).
// During a round each engine shard counts into its own metricShard; the
// shards are folded into Metrics at the round barrier, so Metrics needs
// no locking and every fold (commutative integer sums and maxima) is
// identical at any worker count.
type Metrics struct {
	// Messages is the total number of messages sent. A message to a
	// crashed recipient still counts: the sender paid for it.
	Messages int64
	// Bits is the total payload bits across all sent messages.
	Bits int64
	// Rounds is the number of rounds the network executed.
	Rounds int
	// MaxMessageBits is the largest single payload observed.
	MaxMessageBits int
	// PerKind breaks Messages down by payload kind.
	PerKind map[string]int64
	// PerKindBits breaks Bits down by payload kind.
	PerKindBits map[string]int64
	// HonestMessages and HonestBits exclude traffic sent by nodes the
	// harness marked Byzantine, so experiment counts match the paper's
	// accounting of what the *algorithm* sends.
	HonestMessages int64
	HonestBits     int64
	// PerNodeSent and PerNodeReceived break the message count down per
	// link, exposing the load skew between committee members and plain
	// nodes.
	PerNodeSent     []int64
	PerNodeReceived []int64
	// CongestLimit, when positive, is the per-message bit budget of the
	// CONGEST model; OversizeMessages counts messages exceeding it. The
	// paper's algorithms stay at zero for N = poly(n); the prior-work
	// baselines with Ω(n)-bit messages do not.
	CongestLimit     int
	OversizeMessages int64
}

// NewMetrics returns an empty metrics accumulator.
func NewMetrics() *Metrics {
	return &Metrics{
		PerKind:     make(map[string]int64),
		PerKindBits: make(map[string]int64),
	}
}

// metricShard is one engine worker's per-round accumulator. The hot path
// (add) touches only shard-local state — no locks, no shared cache lines —
// and the per-kind maps are fed through a run-length cache because
// protocols overwhelmingly emit runs of the same payload kind.
type metricShard struct {
	messages       int64
	bits           int64
	honestMessages int64
	honestBits     int64
	oversize       int64
	maxMessageBits int
	perKind        map[string]int64
	perKindBits    map[string]int64

	// Run-length cache for the per-kind maps: consecutive messages of one
	// kind accumulate in runCount/runBits and hit the map once per run.
	runKind  string
	runCount int64
	runBits  int64
}

func (s *metricShard) init() {
	s.perKind = make(map[string]int64)
	s.perKindBits = make(map[string]int64)
}

// reset clears the shard for a new round (after the previous fold).
func (s *metricShard) reset() {
	s.messages = 0
	s.bits = 0
	s.honestMessages = 0
	s.honestBits = 0
	s.oversize = 0
	s.maxMessageBits = 0
	clear(s.perKind)
	clear(s.perKindBits)
	s.runKind = ""
	s.runCount = 0
	s.runBits = 0
}

// add records one on-the-wire message. Semantics mirror the sequential
// engine's accounting: totals include Byzantine senders, while the
// honest-only aggregates (and the CONGEST/size checks, which measure the
// algorithm rather than the adversary) require honest == true.
func (s *metricShard) add(kind string, bits int, honest bool, limit int) {
	s.messages++
	s.bits += int64(bits)
	if honest {
		s.honestMessages++
		s.honestBits += int64(bits)
		if bits > s.maxMessageBits {
			s.maxMessageBits = bits
		}
		if limit > 0 && bits > limit {
			s.oversize++
		}
	}
	if kind != s.runKind {
		s.flushRun()
		s.runKind = kind
	}
	s.runCount++
	s.runBits += int64(bits)
}

// addN records count identical on-the-wire messages — the shared-multicast
// fast path, where one ToSet outbox entry becomes count wire messages of
// the same kind and size. Exactly equivalent to count consecutive add
// calls, including the run-length cache interaction.
func (s *metricShard) addN(kind string, bits int, count int64, honest bool, limit int) {
	s.messages += count
	s.bits += int64(bits) * count
	if honest {
		s.honestMessages += count
		s.honestBits += int64(bits) * count
		if bits > s.maxMessageBits {
			s.maxMessageBits = bits
		}
		if limit > 0 && bits > limit {
			s.oversize += count
		}
	}
	if kind != s.runKind {
		s.flushRun()
		s.runKind = kind
	}
	s.runCount += count
	s.runBits += int64(bits) * count
}

// flushRun spills the run-length cache into the per-kind maps.
func (s *metricShard) flushRun() {
	if s.runCount != 0 {
		s.perKind[s.runKind] += s.runCount
		s.perKindBits[s.runKind] += s.runBits
		s.runCount = 0
		s.runBits = 0
	}
}

// reset returns the accumulator to its just-constructed state, keeping
// map and slice capacity for reuse (pooled engines call it per lease).
func (m *Metrics) reset() {
	m.Messages = 0
	m.Bits = 0
	m.Rounds = 0
	m.MaxMessageBits = 0
	clear(m.PerKind)
	clear(m.PerKindBits)
	m.HonestMessages = 0
	m.HonestBits = 0
	m.CongestLimit = 0
	m.OversizeMessages = 0
}

// sizeFor allocates (or re-zeroes) the per-node counters once the
// network size is known.
func (m *Metrics) sizeFor(n int) {
	if cap(m.PerNodeSent) < n || cap(m.PerNodeReceived) < n {
		m.PerNodeSent = make([]int64, n)
		m.PerNodeReceived = make([]int64, n)
		return
	}
	m.PerNodeSent = m.PerNodeSent[:n]
	m.PerNodeReceived = m.PerNodeReceived[:n]
	for i := range m.PerNodeSent {
		m.PerNodeSent[i] = 0
		m.PerNodeReceived[i] = 0
	}
}

// MaxNodeSent returns the largest per-link send count.
func (m *Metrics) MaxNodeSent() int64 {
	var max int64
	for _, v := range m.PerNodeSent {
		if v > max {
			max = v
		}
	}
	return max
}

// MaxNodeReceived returns the largest per-link receive count.
func (m *Metrics) MaxNodeReceived() int64 {
	var max int64
	for _, v := range m.PerNodeReceived {
		if v > max {
			max = v
		}
	}
	return max
}

// Kinds returns the observed payload kinds in lexical order.
func (m *Metrics) Kinds() []string {
	kinds := make([]string, 0, len(m.PerKind))
	for k := range m.PerKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// String renders a compact human-readable summary.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d messages=%d bits=%d maxMsgBits=%d",
		m.Rounds, m.Messages, m.Bits, m.MaxMessageBits)
	for _, k := range m.Kinds() {
		fmt.Fprintf(&b, " %s=%d", k, m.PerKind[k])
	}
	return b.String()
}
