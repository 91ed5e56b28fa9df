package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"renaming/internal/interval"
	"renaming/internal/sim"
)

// CrashConfig parameterizes the crash-resilient renaming algorithm.
type CrashConfig struct {
	// N is the size of the original namespace [N].
	N int
	// IDs maps link index → original identity; identities are unique
	// values in [1, N].
	IDs []int
	// Seed drives every random choice of the execution.
	Seed int64
	// CommitteeScale multiplies the paper's election constant 256. The
	// paper's constant makes the election probability exceed 1 for
	// laptop-scale n (collapsing the committee to everyone); scaling it
	// down lets experiments exercise genuinely small committees. The
	// default 0 means 1.0, i.e. the paper's constant. Negative, NaN and
	// infinite values are errors.
	CommitteeScale float64
	// DisableReelectionDoubling is the A1 ablation: after a committee
	// wipe, nodes re-elect with the *initial* probability instead of
	// doubling it. Without doubling the adversary can keep wiping
	// committees at constant per-phase cost, so the algorithm loses the
	// resource-competitive property (and may run out of phases).
	DisableReelectionDoubling bool
	// EarlyStop enables the early-stopping extension: a committee member
	// that sees only unit intervals in a phase flags Done in its
	// responses, and nodes halt on the first Done they receive. Safety
	// is unaffected (a unit interval never changes), and in failure-free
	// runs the round count drops from 9·ceil(log2 n) to roughly
	// 3·(ceil(log2 n)+2) — the adaptive-time behaviour of the
	// resource-competitive renaming line of work.
	EarlyStop bool
}

func (cfg CrashConfig) scale() float64 {
	if cfg.CommitteeScale <= 0 {
		return 1
	}
	return cfg.CommitteeScale
}

// Validate checks the configuration.
func (cfg CrashConfig) Validate() error {
	n := len(cfg.IDs)
	if n == 0 {
		return fmt.Errorf("core: no nodes configured")
	}
	if cfg.N < n {
		return fmt.Errorf("core: namespace N=%d smaller than n=%d", cfg.N, n)
	}
	if s := cfg.CommitteeScale; math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
		return fmt.Errorf("core: committee scale %v is not a finite non-negative number", s)
	}
	// Crash payloads travel only in the two-word packed layout, which
	// holds every field for any N below 2^63 once n <= 2^23.
	codec := newCrashCodec(cfg)
	if w := codec.packedWidth(); w > 128 {
		return fmt.Errorf("core: N=%d with n=%d needs a %d-bit crash payload, beyond the 128-bit packed layout", cfg.N, n, w)
	}
	seen := make(map[int]bool, n)
	for i, id := range cfg.IDs {
		if id < 1 || id > cfg.N {
			return fmt.Errorf("core: node %d has identity %d outside [1,%d]", i, id, cfg.N)
		}
		if seen[id] {
			return fmt.Errorf("core: duplicate identity %d", id)
		}
		seen[id] = true
	}
	return nil
}

// Phases returns the paper's phase count 3·ceil(log2 n).
func (cfg CrashConfig) Phases() int { return 3 * log2Ceil(len(cfg.IDs)) }

// TotalRounds returns the number of synchronous rounds a full execution
// takes: three per phase plus the final response-processing round.
func (cfg CrashConfig) TotalRounds() int {
	if cfg.Phases() == 0 {
		return 0
	}
	return 3*cfg.Phases() + 1
}

// CrashPeek is the adversary-visible snapshot of a crash node's state; it
// satisfies the adversary package's CommitteeInfo interface.
type CrashPeek struct {
	Elected bool
	P       int
	D       int
	Decided bool
}

// IsCommitteeMember reports whether the node currently has elected=true.
func (s CrashPeek) IsCommitteeMember() bool { return s.Elected }

// CrashNode is one participant of the crash-resilient algorithm
// (Figures 1–3). Each phase spans three synchronous rounds:
//
//	round 3k   — NodeAction on the previous phase's responses, then
//	             committee members broadcast their Notify announcement;
//	round 3k+1 — nodes that received announcements send their Status to
//	             every active committee member;
//	round 3k+2 — committee members run CommitteeAction on the received
//	             statuses and send per-node Response decisions.
//
// Responses sent in round 3k+2 are delivered in round 3(k+1), which is
// where the next NodeAction runs — matching the paper's "end of phase"
// processing.
type CrashNode struct {
	idx int // link index
	id  int // original identity in [1, N]
	n   int
	cfg CrashConfig
	// rng replays the node's private randomness stream lazily: the crash
	// algorithm draws only at activation and on committee wipes /
	// p-adoptions, so 16 bytes of (seed, counter) state replace the ~5 KiB
	// resident generator a *rand.Rand would pin per node — the difference
	// between ~5 GiB and ~16 MiB of generator state at n = 2^20.
	rng sim.LazyRand

	iv          interval.Interval
	p           int
	d           int
	elected     bool
	everElected bool

	phases  int
	halted  bool
	decided bool

	// committeeLinks holds, during rounds 3k+1 and 3k+2, the links that
	// announced committee membership this phase.
	committeeLinks []int

	// sets is the engine's interned-set registry (sim.SetUser), letting
	// the per-phase status multicast travel as one shared ToSet entry
	// when this node's committee view matches the phase's canonical set;
	// nil (or a declined intern) falls back to an explicit Multicast.
	sets *sim.Sets
	// agg is the run-wide shared committee aggregate (one object for all
	// nodes, obtained through the registry's scratch slot); nil when
	// shared multicasts are disabled.
	agg *committeeAggregate

	// Reusable scratch, all owned by this node and safe under the
	// engine's one-round buffer slack: an outbox or payload written in
	// round r is copied/delivered within round r and read by recipients
	// in round r+1, while the owner rewrites it no earlier than round
	// r+3 (the next occurrence of the same schedule slot).
	outBuf sim.Outbox // outbox reused across every round

	// codec and the payload arenas hold the bit-packed wire
	// representation (see crashCodec): the one status box multicast each
	// phase, and the committee member's response arena.
	codec           crashCodec
	packedStatusBox PackedStatus
	packedRespBuf   []PackedResponse

	// plan is the node's private committee computation, used when this
	// member's inbox is not the shared aggregate view (eager-multicast
	// ablation, or a mid-send filter gave it a per-recipient merged view).
	plan committeePlan
}

var _ sim.Node = (*CrashNode)(nil)
var _ sim.Quiescent = (*CrashNode)(nil)
var _ sim.SetUser = (*CrashNode)(nil)

// UseSets implements sim.SetUser: the engine hands the node its
// interned-set registry at setup (nil disables shared multicasts). All
// nodes of a run share one committeeAggregate through the registry's
// scratch slot, so a committee round's inbox-pure work is computed once
// for the whole committee.
func (node *CrashNode) UseSets(s *sim.Sets) {
	node.sets = s
	node.agg = nil
	if s != nil {
		node.agg = s.Scratch(func() any { return new(committeeAggregate) }).(*committeeAggregate)
	}
}

// NewCrashNode constructs the node at link index idx. The initial
// self-election with probability 256·log n/n (Figure 1 line 2) happens
// here, at activation time.
func NewCrashNode(cfg CrashConfig, idx int) *CrashNode {
	n := len(cfg.IDs)
	node := &CrashNode{
		idx:    idx,
		id:     cfg.IDs[idx],
		n:      n,
		cfg:    cfg,
		rng:    sim.NewLazyRand(cfg.Seed, 0x6372617368<<16|uint64(idx)), // "crash" stream
		iv:     interval.Full(n),
		phases: cfg.Phases(),
		codec:  newCrashCodec(cfg),
	}
	if node.phases == 0 {
		// n == 1: the interval [1,1] is already a unit; nothing to do.
		node.halted = true
		node.decided = true
		return node
	}
	node.elected = node.rng.Float64() < node.electProb(0)
	node.everElected = node.elected
	return node
}

// electProb returns min(1, 256·2^p·log2(n)·scale / n).
func (node *CrashNode) electProb(p int) float64 {
	logn := float64(log2Ceil(node.n))
	prob := 256 * float64(uint64(1)<<uint(min(p, 62))) * logn * node.cfg.scale() / float64(node.n)
	if prob > 1 {
		return 1
	}
	return prob
}

// Peek exposes the adversary-visible state snapshot.
func (node *CrashNode) Peek() CrashPeek {
	return CrashPeek{Elected: node.elected, P: node.p, D: node.d, Decided: node.iv.Unit()}
}

// Output returns the node's new identity once its interval is a unit.
func (node *CrashNode) Output() (int, bool) {
	if v, ok := node.iv.Value(); ok && node.decided {
		return v, true
	}
	return 0, false
}

// Halted implements sim.Node.
func (node *CrashNode) Halted() bool { return node.halted }

// Elected reports whether the node is currently a committee member.
func (node *CrashNode) Elected() bool { return node.elected }

// EverElected reports whether the node was a committee member at any
// point — the quantity Lemma 2.6 bounds by O(min{2^p·log n, n}).
func (node *CrashNode) EverElected() bool { return node.everElected }

// State returns (interval, depth, probability exponent) for invariant
// checks in tests.
func (node *CrashNode) State() (interval.Interval, int, int) { return node.iv, node.d, node.p }

// Idle implements sim.Quiescent: only a halted node is idle. An empty
// inbox is a no-op in the send-status and committee rounds, but not at
// the start of a phase (round 3k): there it is the committee-wipe signal
// of Figure 3 lines 1–3, which doubles p and draws re-election
// randomness, and elected nodes broadcast their Notify announcement
// regardless of the inbox. Idle vouches for every round, so a live node
// is never idle.
func (node *CrashNode) Idle() bool { return node.halted }

// Step implements sim.Node.
func (node *CrashNode) Step(round int, inbox []sim.Message) sim.Outbox {
	if node.halted {
		return nil
	}
	switch round % 3 {
	case 0:
		node.nodeAction(round, inbox)
		if node.halted {
			return nil
		}
		if node.elected {
			// Shared-broadcast representation: stored once, billed as n
			// wire messages (sim.ToAll), reusing the node's outbox buffer.
			node.outBuf = append(node.outBuf[:0],
				sim.Message{From: node.idx, To: sim.ToAll, Payload: NotifyPayload{}})
			return node.outBuf
		}
		return nil
	case 1:
		node.committeeLinks = node.committeeLinks[:0]
		for _, msg := range inbox {
			if _, ok := msg.Payload.(NotifyPayload); ok {
				node.committeeLinks = append(node.committeeLinks, msg.From)
			}
		}
		// One status box per phase, shared by every copy of the
		// multicast; recipients read it next round, long before the
		// next rewrite two rounds later.
		node.packedStatusBox = node.codec.encodeStatus(StatusPayload{
			ID: node.id, I: node.iv, D: node.d, P: node.p,
			SizeN: node.cfg.N, SizeSmallN: node.n,
		})
		payload := &node.packedStatusBox
		out := node.outBuf[:0]
		// Shared-multicast representation: when this node's committee view
		// matches the phase's canonical set (it always does in failure-free
		// phases — every node derives it from the same Notify broadcasts),
		// a single ToSet entry replaces the K explicit headers. It is
		// billed as K wire messages and delivered through the engine's
		// shared-aggregate layer, so the convergecast costs O(n + K)
		// engine work instead of O(n·K). Nodes whose view diverged — a
		// committee member crashed mid-Notify and the filter dropped some
		// copies — fall back to the explicit Multicast below.
		if node.sets != nil && len(node.committeeLinks) > 0 {
			if id, ok := node.sets.InternPhase(uint64(round/3), node.committeeLinks); ok {
				out = append(out, sim.Message{From: node.idx, To: sim.ToSet(id), Payload: payload})
				node.outBuf = out
				return out
			}
		}
		for _, link := range node.committeeLinks {
			out = append(out, sim.Message{From: node.idx, To: link, Payload: payload})
		}
		node.outBuf = out
		return out
	default:
		if !node.elected {
			return nil
		}
		return node.committeeAction(round, inbox)
	}
}

// statusMsg pairs a received status with its sender link. The pointer
// stays valid for the whole committee round: senders rewrite their
// status box no earlier than the next send-status round.
type statusMsg struct {
	link int
	s    *StatusPayload
}

// ivGroup aggregates the statuses that chose one distinct interval, so
// rank and sub-interval counts are computed once per distinct interval
// instead of once per status (the baseline applyPhase's grouping,
// applied to the committee hot loop).
type ivGroup struct {
	iv     interval.Interval
	count  int32 // statuses with exactly this interval
	start  int32 // offset of this group's ID bucket in idBuf
	filled int32 // bucket fill cursor
	hasMin bool  // some status at the frontier depth chose this interval
}

// committeePlan is the inbox-pure part of one committee round: the
// decoded statuses, the grouped halving quantities of Figure 2, and the
// resulting per-status response decisions — everything except the
// member's own p stamp and the message headers. Those inputs are a pure
// function of the delivered statuses, so when every committee member is
// bound to the same shared status aggregate one plan serves all K of
// them (see committeeAggregate).
type committeePlan struct {
	statusDec []StatusPayload // decoded packed statuses (pointer-stable arena)
	statuses  []statusMsg     // collected status pointers, inbox order
	groups    []ivGroup       // distinct intervals
	groupIdx  []int32         // per status → group index
	idBuf     []int           // per-group sorted ID buckets
	groupOf   map[interval.Interval]int32
	botAcc    map[interval.Interval]int

	// Outputs: respBase[j] is the response for statuses[j] with P left
	// zero (stamped per member at emit time), addressed to links[j].
	respBase []ResponsePayload
	links    []int32
	// maxP is the maximum p carried by any status (Figure 1 line 10);
	// each member adopts max(own p, maxP).
	maxP int
}

// compute fills the plan from a committee round's inbox. It implements
// Figure 2: the member halves the intervals of exactly the
// minimum-depth statuses; deeper statuses are echoed unchanged, which
// keeps all nodes at most one depth level apart.
//
// The per-status work of the halving rule — collecting and sorting the
// identities that chose the same interval, and counting the identities
// inside bot(I) — is shared across every status with the same interval:
// IDs are bucketed and sorted once per distinct interval, and the
// bot(I) occupancy of every needed interval is accumulated along one
// root-to-interval walk of the halving tree per distinct interval
// (tree vertices are nested or disjoint, so the intervals contained in
// bot(I) are exactly those whose root path passes through it). That
// turns the old O(K²) pass over K statuses into O(K log K + G log n)
// for G distinct intervals, with all scratch reused across rounds —
// the change that makes the n = 65536 sweeps feasible. Results are
// byte-identical: rank and count are the same quantities, computed
// grouped.
func (pl *committeePlan) compute(codec *crashCodec, cfg CrashConfig, n int, inbox []sim.Message) {
	statuses := pl.statuses[:0]
	// Packed statuses are decoded into a pre-sized arena so the pointers
	// collected into statuses stay valid (no growth reallocations).
	if cap(pl.statusDec) < len(inbox) {
		pl.statusDec = make([]StatusPayload, 0, len(inbox))
	}
	dec := pl.statusDec[:0]
	for _, msg := range inbox {
		if s, ok := msg.Payload.(*PackedStatus); ok {
			dec = dec[:len(dec)+1]
			codec.decodeStatus(s, &dec[len(dec)-1])
			statuses = append(statuses, statusMsg{link: msg.From, s: &dec[len(dec)-1]})
		}
	}
	pl.statusDec = dec
	pl.statuses = statuses
	pl.respBase = pl.respBase[:0]
	pl.links = pl.links[:0]
	pl.maxP = 0
	if len(statuses) == 0 {
		return
	}

	// One pass: the maximum received p (Figure 1 line 10), the frontier
	// depth d~ = min d, and the early-stop condition.
	minDepth := statuses[0].s.D
	allUnit := true
	for _, m := range statuses {
		if m.s.P > pl.maxP {
			pl.maxP = m.s.P
		}
		if m.s.D < minDepth {
			minDepth = m.s.D
		}
		if !m.s.I.Unit() {
			allUnit = false
		}
	}

	// Group statuses by distinct interval.
	if pl.groupOf == nil {
		pl.groupOf = make(map[interval.Interval]int32)
	}
	clear(pl.groupOf)
	groups := pl.groups[:0]
	groupIdx := pl.groupIdx[:0]
	for _, m := range statuses {
		gi, ok := pl.groupOf[m.s.I]
		if !ok {
			gi = int32(len(groups))
			groups = append(groups, ivGroup{iv: m.s.I})
			pl.groupOf[m.s.I] = gi
		}
		g := &groups[gi]
		g.count++
		if m.s.D == minDepth {
			g.hasMin = true
		}
		groupIdx = append(groupIdx, gi)
	}
	pl.groups = groups
	pl.groupIdx = groupIdx

	// Bucket the IDs per group and sort the buckets that the halving
	// rule will rank against (frontier depth, non-unit interval).
	if cap(pl.idBuf) < len(statuses) {
		pl.idBuf = make([]int, len(statuses))
	}
	idBuf := pl.idBuf[:len(statuses)]
	var off int32
	for i := range groups {
		groups[i].start = off
		groups[i].filled = off
		off += groups[i].count
	}
	for j, m := range statuses {
		g := &groups[groupIdx[j]]
		idBuf[g.filled] = m.s.ID
		g.filled++
	}
	for i := range groups {
		g := &groups[i]
		if g.hasMin && !g.iv.Unit() {
			sort.Ints(idBuf[g.start : g.start+g.count])
		}
	}

	// Accumulate |B_(u,w)| = #statuses inside bot(I) for every distinct
	// frontier interval I, by walking each group's root path once.
	if pl.botAcc == nil {
		pl.botAcc = make(map[interval.Interval]int)
	}
	botAcc := pl.botAcc
	clear(botAcc)
	needBot := false
	for i := range groups {
		g := &groups[i]
		if g.hasMin && !g.iv.Unit() {
			botAcc[g.iv.Bot()] = 0
			needBot = true
		}
	}
	if needBot {
		root := interval.Full(n)
		nonTree := false
	walk:
		for i := range groups {
			g := &groups[i]
			cur := root
			for {
				if c, ok := botAcc[cur]; ok {
					botAcc[cur] = c + int(g.count)
				}
				if cur == g.iv || cur.Unit() {
					break
				}
				if b := cur.Bot(); b.Contains(g.iv) {
					cur = b
					continue
				}
				if t := cur.Top(); t.Contains(g.iv) {
					cur = t
					continue
				}
				// g.iv is not a vertex of the halving tree — impossible
				// for statuses produced by this algorithm, but fall back
				// to the exact quadratic count rather than miscount.
				nonTree = true
				break walk
			}
		}
		if nonTree {
			for k := range botAcc {
				botAcc[k] = 0
			}
			for i := range groups {
				g := &groups[i]
				for k := range botAcc {
					if k.Contains(g.iv) {
						botAcc[k] += int(g.count)
					}
				}
			}
		}
	}

	// Decide one response per status, in inbox order, leaving P zero for
	// the member to stamp at emit time.
	early := cfg.EarlyStop && allUnit
	for j, m := range statuses {
		w := m.s
		resp := ResponsePayload{ID: w.ID, SizeN: cfg.N, SizeSmallN: n, Done: early}
		switch {
		case w.D != minDepth:
			// Deeper than the frontier: echo unchanged (Figure 2 line 11).
			resp.I, resp.D = w.I, w.D
		case w.I.Unit():
			// A node whose interval already shrank to a unit sits at the
			// frontier only when every interval at this depth has size at
			// most two (level sizes differ by at most one). Halving a
			// unit interval is undefined; echo it with incremented depth
			// so the frontier can move on. The recipient ignores the
			// response anyway (NodeAction only updates when |I_v| > 1).
			resp.I, resp.D = w.I, w.D+1
		default:
			// The halving rule of Figure 2 lines 4–9, over the grouped
			// quantities: rank of ID(w) among the identities that chose
			// I_w, plus the occupancy of bot(I_w).
			g := &groups[groupIdx[j]]
			bucket := idBuf[g.start : g.start+g.count]
			rank := sort.SearchInts(bucket, w.ID) + 1
			bot := w.I.Bot()
			if botAcc[bot]+rank <= bot.Size() {
				resp.I, resp.D = bot, w.D+1
			} else {
				resp.I, resp.D = w.I.Top(), w.D+1
			}
		}
		pl.respBase = append(pl.respBase, resp)
		pl.links = append(pl.links, int32(m.link))
	}
}

// committeeAggregate is the run-wide shared committee computation, one
// object for all nodes of a run (distributed through sim.Sets.Scratch).
// In a committee round every member receives the same n statuses; when
// the engine bound them all to one shared aggregate view the inbox
// slice identity is shared too, and the first member to step computes
// the plan once for everyone. It also carries a shared response arena:
// the first member to stamp encodes the responses with its adopted p,
// and every member whose p matches (the common case — they all adopt
// the same maximum) reuses the same payload boxes, so a recipient sees
// K responses carrying one box and decodes it once. Members whose p or
// inbox diverged fall back to private encoding — the per-recipient
// delta path.
type committeeAggregate struct {
	mu    sync.Mutex
	round int
	key   *sim.Message // &inbox[0]: identity of the shared bound view
	n     int
	valid bool
	plan  committeePlan

	encoded   bool
	encP      int // p stamped into the shared arena
	packedBuf []PackedResponse
}

// committeeAction implements Figure 2 for one member. The inbox-pure
// plan is computed by committeePlan.compute — through the shared
// aggregate when this member's inbox is the shared bound view (all
// entries keep the sender's ToSet sentinel), privately otherwise.
func (node *CrashNode) committeeAction(round int, inbox []sim.Message) sim.Outbox {
	if len(inbox) == 0 {
		return nil
	}
	// A delivered inbox whose To is still a shared sentinel is the
	// engine's zero-copy bound view — identical (same backing array) for
	// every member of the set. Per-recipient merged or individual views
	// carry To == own link and take the private path.
	if node.agg != nil && inbox[0].To < 0 {
		return node.committeeShared(round, inbox)
	}
	pl := &node.plan
	pl.compute(&node.codec, node.cfg, node.n, inbox)
	if len(pl.respBase) == 0 {
		return nil
	}
	if pl.maxP > node.p {
		node.p = pl.maxP
	}
	return node.emitResponses(pl)
}

// committeeShared runs the member's committee round over the shared
// aggregate: plan computed once per (round, view), responses encoded
// once for the common adopted p, headers built per member.
func (node *CrashNode) committeeShared(round int, inbox []sim.Message) sim.Outbox {
	agg := node.agg
	agg.mu.Lock()
	if !agg.valid || agg.round != round || agg.key != &inbox[0] || agg.n != len(inbox) {
		agg.round, agg.key, agg.n = round, &inbox[0], len(inbox)
		agg.plan.compute(&node.codec, node.cfg, node.n, inbox)
		agg.encoded = false
		agg.valid = true
	}
	pl := &agg.plan
	if len(pl.respBase) == 0 {
		agg.mu.Unlock()
		return nil
	}
	if pl.maxP > node.p {
		node.p = pl.maxP
	}
	if !agg.encoded {
		// First member to stamp encodes the shared arena with its p. All
		// members adopt max(own p, maxP), so in the common uniform-p case
		// everyone reuses these boxes.
		agg.encP = node.p
		if cap(agg.packedBuf) < len(pl.respBase) {
			agg.packedBuf = make([]PackedResponse, len(pl.respBase))
		}
		buf := agg.packedBuf[:len(pl.respBase)]
		for j, resp := range pl.respBase {
			resp.P = node.p
			buf[j] = node.codec.encodeResponse(resp)
		}
		agg.packedBuf = buf
		agg.encoded = true
	}
	reuse := agg.encP == node.p
	agg.mu.Unlock()
	// Past this point the plan and arena are immutable for the rest of
	// the round (the next rewrite is the next committee round, three
	// engine barriers away), so headers are built outside the lock.
	if !reuse {
		// This member adopted a different p than the stamping member —
		// encode a private arena (the rare per-member delta).
		return node.emitResponses(pl)
	}
	out := node.outBuf[:0]
	for j := range pl.respBase {
		out = append(out, sim.Message{From: node.idx, To: int(pl.links[j]), Payload: &agg.packedBuf[j]})
	}
	node.outBuf = out
	return out
}

// emitResponses stamps the member's p into the plan's response
// decisions and encodes them into the node-owned arena; recipients read
// the boxes next round, before the next committee round rewrites them.
func (node *CrashNode) emitResponses(pl *committeePlan) sim.Outbox {
	out := node.outBuf[:0]
	if cap(node.packedRespBuf) < len(pl.respBase) {
		node.packedRespBuf = make([]PackedResponse, len(pl.respBase))
	}
	packedBuf := node.packedRespBuf[:len(pl.respBase)]
	for j, resp := range pl.respBase {
		resp.P = node.p
		packedBuf[j] = node.codec.encodeResponse(resp)
		out = append(out, sim.Message{From: node.idx, To: int(pl.links[j]), Payload: &packedBuf[j]})
	}
	node.packedRespBuf = packedBuf
	node.outBuf = out
	return out
}

// nodeAction implements Figure 3, run on the responses delivered at the
// start of round 3k (sent by the committee in round 3k−1).
func (node *CrashNode) nodeAction(round int, inbox []sim.Message) {
	if round == 0 {
		return // no previous phase
	}
	// One pass over the inbox: the response the old stable sort put
	// first is the minimum under (D descending, then interval Less) with
	// earliest-arrival tie-breaking — tracked directly, along with the
	// maximum received p and the early-stop flag, without materialising
	// or reordering a responses slice.
	var best ResponsePayload
	haveBest := false
	maxP := node.p
	sawDone := false
	// Committee members that reused the shared response arena all sent
	// this node the same payload box; decode it once.
	var lastPacked *PackedResponse
	var lastDec ResponsePayload
	for _, msg := range inbox {
		p, ok := msg.Payload.(*PackedResponse)
		if !ok {
			continue
		}
		var r ResponsePayload
		if p == lastPacked {
			r = lastDec
		} else {
			node.codec.decodeResponse(p, &r)
			lastPacked, lastDec = p, r
		}
		if !haveBest || r.D > best.D || (r.D == best.D && interval.Less(r.I, best.I)) {
			best = r
			haveBest = true
		}
		if r.P > maxP {
			maxP = r.P
		}
		if r.Done {
			sawDone = true
		}
	}

	if !haveBest {
		// Figure 3 lines 1–3: the whole committee crashed this phase.
		if !node.cfg.DisableReelectionDoubling {
			node.p++
		}
		if !node.elected && node.rng.Float64() < node.electProb(node.p) {
			node.elected = true
			node.everElected = true
		}
	} else {
		// Figure 3 lines 5–12: adopt the deepest (then leftmost)
		// decision, then catch up on p.
		if !node.iv.Unit() {
			node.d = best.D
			node.iv = best.I
		}
		if maxP > node.p {
			node.p = maxP
			if !node.elected && node.rng.Float64() < node.electProb(node.p) {
				node.elected = true
				node.everElected = true
			}
		}
		if node.cfg.EarlyStop && sawDone && node.iv.Unit() {
			node.halted = true
			node.decided = true
			return
		}
	}

	if round >= 3*node.phases {
		node.halted = true
		node.decided = node.iv.Unit()
	}
}
