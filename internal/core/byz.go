package core

import (
	"cmp"
	"slices"
	"sort"

	"renaming/internal/bitvec"
	"renaming/internal/consensus"
	"renaming/internal/hashing"
	"renaming/internal/interval"
	"renaming/internal/sharedrand"
	"renaming/internal/sim"
)

// byzPhase tracks a correct node's position in the protocol schedule.
type byzPhase int

const (
	phElect     byzPhase = iota + 1 // round 0: candidates announce
	phAggregate                     // round 1: everyone announces its identity
	phLoop                          // round 2+: committee divide-and-conquer
	phWait                          // non-members / post-distribution: wait for NEW
)

// loopStage tracks which subprotocol the committee is currently running
// for the segment on top of the stack.
type loopStage int

const (
	stageUnitConsensus loopStage = iota + 1 // single-bit segment: Consensus on the bit
	stageValidator                          // Validator on ⟨fingerprint, count⟩
	stageSameConsensus                      // Consensus on the validator's same flag
	stageDiffExchange                       // one-round diff report
	stageDiffConsensus                      // Consensus on the amplified diff flag
)

// member is one committee member in a node's view.
type member struct {
	id   int
	link int
}

// ByzNode is a correct participant of the Byzantine-resilient renaming
// algorithm (Section 3.1): committee election via the shared candidate
// pool, identity aggregation into an N-bit list, fingerprint-based
// divide-and-conquer consensus on the list, and majority-voted new
// identity distribution.
type ByzNode struct {
	idx int
	id  int
	n   int
	cfg ByzConfig

	poolSet []bool // shared pool-membership bitset, indexed by identity
	elected bool

	// Committee view, identical across correct nodes (G ⊆ ∩Cv with the
	// all-or-nothing announcement simplification documented in DESIGN.md).
	// Membership tests binary-search memberLinks (sorted ascending): a
	// per-node Θ(n) bool set would make the whole run Θ(n²) memory —
	// ~4 GiB at n = 65536 — for a set that holds O(polylog n) links.
	committee   []member
	memberLinks []int

	// Committee-member state.
	list      *bitvec.Vector
	heard     []bool // per link: announced its identity to this member
	stack     []interval.Interval
	processed []interval.Interval
	dirty     []interval.Interval
	stage     loopStage
	machine   consensus.Machine
	pc        int
	cur       interval.Interval
	curVal    consensus.Value // my ⟨fingerprint, count⟩ for cur
	agreedVal consensus.Value // validator output ⟨s', cnt'⟩
	diffBit   bool
	loopDone  bool
	// iterations counts divide-and-conquer iterations (segments
	// processed), the quantity Lemma 3.10 bounds by 4·f·log N.
	iterations int

	// Decision state (all correct nodes). newVotes holds one slot per
	// committee member, indexed by its position in memberLinks, and votes
	// counts the filled slots. votesDirty gates tryDecide to rounds where
	// newVotes actually changed — its verdict is a pure function of
	// newVotes, so re-evaluating an unchanged set is waste. tally is
	// tryDecide's reused scratch.
	phase      byzPhase
	newVotes   []newVote
	votes      int
	votesDirty bool
	tally      []int
	newID      int
	decided    bool
	halted     bool

	// Per-round scratch, reused across Step calls: the subprotocol inbox
	// and the outbox every helper appends into (valid until next Step).
	subIn  []consensus.Msg
	outBuf sim.Outbox

	// Pooled subprotocol machines: committee membership is fixed after
	// election and the loop runs its machines strictly in sequence, so
	// one PhaseKing and one Validator (reset per use) serve every
	// instance without re-allocating their member views and tallies.
	pkScratch *consensus.PhaseKing
	vaScratch *consensus.Validator
	beacon    *sharedrand.Beacon // cached: the beacon is a stateless seed

	// boxed caches the last interface-boxed subprotocol payload across
	// rounds: a member's vote usually repeats between phases, and the
	// boxed value is immutable, so re-sending the same box skips the
	// per-broadcast heap allocation.
	boxed    sim.Payload
	boxedKey SubPayload

	// newBuf is the distribution arena: one PackedNew per heard identity,
	// sent by pointer so the NEW messages of a committee member share
	// the arena instead of boxing a struct each (see byzCodec).
	newBuf []PackedNew
}

// newVote is one committee member's NEW vote slot; ok marks it filled.
type newVote struct {
	p  NewPayload
	ok bool
}

var _ sim.Node = (*ByzNode)(nil)
var _ sim.Quiescent = (*ByzNode)(nil)

// NewByzNode constructs the correct node at link index idx. Passing a
// cfg that went through Precompute shares the candidate-pool bitset
// across all nodes; otherwise it is derived here.
func NewByzNode(cfg ByzConfig, idx int) *ByzNode {
	cfg = cfg.Precompute()
	return &ByzNode{
		idx:     idx,
		id:      cfg.IDs[idx],
		n:       len(cfg.IDs),
		cfg:     cfg,
		poolSet: cfg.pre.poolSet,
		phase:   phElect,
	}
}

// inPool reports whether the identity is in the candidate pool. Bounds-
// checked because Byzantine ELECT payloads carry arbitrary identities.
func (node *ByzNode) inPool(id int) bool {
	return id >= 1 && id < len(node.poolSet) && node.poolSet[id]
}

// Output returns the node's new identity once decided.
func (node *ByzNode) Output() (int, bool) {
	if !node.decided {
		return 0, false
	}
	return node.newID, true
}

// Halted implements sim.Node.
func (node *ByzNode) Halted() bool { return node.halted }

// Idle implements sim.Quiescent: a halted node, or a waiting node with no
// undigested NEW votes, does nothing on an empty inbox — the phWait
// branch of Step only reads the inbox and the votesDirty flag, never the
// round number or any randomness — so the engine may elide the call.
// Committee members (phLoop) drive subprotocol counters every round and
// are never idle.
func (node *ByzNode) Idle() bool {
	return node.halted || (node.phase == phWait && !node.votesDirty)
}

// Elected reports whether the node is a committee member.
func (node *ByzNode) Elected() bool { return node.elected }

// CommitteeSize returns the size of the node's committee view.
func (node *ByzNode) CommitteeSize() int { return len(node.committee) }

// Iterations returns the number of divide-and-conquer iterations the
// committee ran (0 for non-members), the quantity bounded by Lemma 3.10.
func (node *ByzNode) Iterations() int { return node.iterations }

// Partition returns the processed segments (the paper's Ĵ) for invariant
// checks: across correct members they must be identical and partition
// [1, N] (Lemma 3.8).
func (node *ByzNode) Partition() []interval.Interval {
	out := make([]interval.Interval, len(node.processed))
	copy(out, node.processed)
	return out
}

// ByzantineInCommittee counts committee-view members whose link the
// predicate classifies as Byzantine — used by harnesses to check the
// committee-composition assumption of Lemma 3.5.
func (node *ByzNode) ByzantineInCommittee(isByz func(link int) bool) int {
	count := 0
	for _, m := range node.committee {
		if isByz(m.link) {
			count++
		}
	}
	return count
}

// DirtySegments returns the segments the member marked dirty.
func (node *ByzNode) DirtySegments() []interval.Interval {
	out := make([]interval.Interval, len(node.dirty))
	copy(out, node.dirty)
	return out
}

// Step implements sim.Node.
func (node *ByzNode) Step(round int, inbox []sim.Message) sim.Outbox {
	if node.halted {
		return nil
	}
	switch node.phase {
	case phElect:
		return node.stepElect()
	case phAggregate:
		return node.stepAggregate(inbox)
	case phLoop:
		node.absorbNew(inbox)
		return node.stepLoop(inbox)
	default:
		node.absorbNew(inbox)
		if node.votesDirty {
			node.tryDecide()
		}
		return nil
	}
}

// stepElect is round 0: pool members announce ELECT to everyone.
func (node *ByzNode) stepElect() sim.Outbox {
	node.phase = phAggregate
	if !node.inPool(node.id) {
		return nil
	}
	node.elected = true
	return sim.Broadcast(node.idx, node.n, ElectPayload{ID: node.id, SizeN: node.cfg.N})
}

// stepAggregate is round 1: build the committee view from authenticated
// ELECT messages, then send the own identity to every committee member.
func (node *ByzNode) stepAggregate(inbox []sim.Message) sim.Outbox {
	for _, msg := range inbox {
		e, ok := msg.Payload.(ElectPayload)
		if !ok {
			continue
		}
		// Accept only pool members whose authentication binding checks
		// out; a Byzantine node cannot claim a foreign identity.
		if !node.inPool(e.ID) || !node.cfg.VerifyIdentity(msg.From, e.ID) {
			continue
		}
		node.committee = append(node.committee, member{id: e.ID, link: msg.From})
	}
	slices.SortFunc(node.committee, func(a, b member) int { return cmp.Compare(a.id, b.id) })
	node.committee = dedupMembers(node.committee)
	node.memberLinks = make([]int, 0, len(node.committee))
	for _, m := range node.committee {
		node.memberLinks = append(node.memberLinks, m.link)
	}
	sort.Ints(node.memberLinks)
	node.newVotes = make([]newVote, len(node.memberLinks))
	node.tally = make([]int, 0, len(node.memberLinks))

	if node.elected {
		node.phase = phLoop
		node.list = bitvec.New(node.cfg.N)
		node.heard = make([]bool, node.n)
		node.stack = []interval.Interval{interval.Full(node.cfg.N)}
	} else {
		node.phase = phWait
	}

	announce := AnnouncePayload{ID: node.id, SizeN: node.cfg.N}
	return sim.Multicast(node.idx, node.memberLinks, announce)
}

// stepLoop drives the committee member through aggregation (its first
// loop round) and the divide-and-conquer subprotocols. All helpers below
// append into node.outBuf, which is reset here and valid until the next
// Step call.
func (node *ByzNode) stepLoop(inbox []sim.Message) sim.Outbox {
	node.outBuf = node.outBuf[:0]
	if node.machine == nil && !node.loopDone {
		// First loop round (round 2): absorb the identity announcements
		// into the list, then start on the full segment.
		for _, msg := range inbox {
			a, ok := msg.Payload.(AnnouncePayload)
			if !ok {
				continue
			}
			if !node.cfg.VerifyIdentity(msg.From, a.ID) {
				continue
			}
			node.list.Set(a.ID)
			node.heard[msg.From] = true
		}
		node.startSegment()
		node.pc++
		return node.outBuf
	}

	// Subprotocol round: feed the machine the messages tagged with the
	// previous counter value.
	expected := node.pc - 1
	subIn := node.subIn[:0]
	for _, msg := range inbox {
		s, ok := msg.Payload.(SubPayload)
		if !ok || s.PC != expected {
			continue
		}
		subIn = append(subIn, consensus.Msg{From: msg.From, To: node.idx, Val: s.Val})
	}
	node.subIn = subIn
	if node.machine != nil {
		node.wrapSub(node.machine.Step(subIn))
		if node.machine.Done() {
			node.advance()
		}
	}
	node.pc++
	return node.outBuf
}

// startSegment pops the next pending segment and starts its first
// subprotocol, appending the wrapped first-round messages to outBuf.
// When the stack is empty the loop is over and distribution happens
// immediately.
func (node *ByzNode) startSegment() {
	if len(node.stack) == 0 {
		node.loopDone = true
		node.machine = nil
		node.distribute()
		node.phase = phWait
		return
	}
	node.iterations++
	node.cur = node.stack[len(node.stack)-1]
	node.stack = node.stack[:len(node.stack)-1]

	if node.cfg.SplitAlways && !node.cur.Unit() {
		// A2 ablation: no fingerprinting, recurse immediately.
		node.split()
		return
	}
	if node.cur.Unit() {
		bit := node.list.Get(node.cur.Lo)
		node.stage = stageUnitConsensus
		node.machine = node.phaseKing(bit)
	} else {
		if node.beacon == nil {
			node.beacon = node.cfg.Beacon()
		}
		seed := node.beacon.HashSeed(0, node.cur.Lo, node.cur.Hi)
		fp := hashing.NewHasher(seed).Sum(node.list.SegmentWords(node.cur.Lo, node.cur.Hi))
		cnt := node.list.CountRange(node.cur.Lo, node.cur.Hi)
		node.curVal = consensus.Value{Hi: uint64(fp), Lo: uint64(cnt)}
		node.stage = stageValidator
		node.machine = node.validator(node.curVal)
	}
	node.wrapSub(node.machine.Step(nil))
}

// phaseKing returns the node's pooled PhaseKing rewound to a fresh run
// with the given input; the first call constructs it over the (fixed)
// committee view.
func (node *ByzNode) phaseKing(input bool) *consensus.PhaseKing {
	if node.pkScratch == nil {
		node.pkScratch = consensus.NewPhaseKing(node.idx, node.memberLinks, input)
	} else {
		node.pkScratch.Reset(input)
	}
	return node.pkScratch
}

// validator returns the node's pooled Validator, likewise rewound.
func (node *ByzNode) validator(input consensus.Value) *consensus.Validator {
	if node.vaScratch == nil {
		node.vaScratch = consensus.NewValidator(node.idx, node.memberLinks, input)
	} else {
		node.vaScratch.Reset(input)
	}
	return node.vaScratch
}

// advance reacts to the current machine finishing: it applies the
// machine's output to the protocol state and starts the next machine (or
// segment), appending any first-round messages of the successor to
// outBuf.
func (node *ByzNode) advance() {
	switch node.stage {
	case stageUnitConsensus:
		pk := node.machine.(*consensus.PhaseKing)
		bit, _ := pk.Output()
		if bit {
			node.list.Set(node.cur.Lo)
		} else {
			node.list.Clear(node.cur.Lo)
		}
		node.processed = append(node.processed, node.cur)
		node.startSegment()

	case stageValidator:
		va := node.machine.(*consensus.Validator)
		same, out, _ := va.Output()
		node.agreedVal = out
		node.stage = stageSameConsensus
		node.machine = node.phaseKing(same)
		node.wrapSub(node.machine.Step(nil))

	case stageSameConsensus:
		pk := node.machine.(*consensus.PhaseKing)
		same, _ := pk.Output()
		if !same {
			node.split()
			return
		}
		node.diffBit = node.curVal != node.agreedVal
		node.stage = stageDiffExchange
		node.machine = consensus.NewExchange(node.idx, node.memberLinks, consensus.Bit(node.diffBit))
		node.wrapSub(node.machine.Step(nil))

	case stageDiffExchange:
		_, reports := node.machine.(*consensus.Exchange).CountBits()
		diffPrime := node.diffBit
		if reports >= node.diffThreshold() {
			diffPrime = true
		}
		node.stage = stageDiffConsensus
		node.machine = node.phaseKing(diffPrime)
		node.wrapSub(node.machine.Step(nil))

	default: // stageDiffConsensus
		pk := node.machine.(*consensus.PhaseKing)
		diff, _ := pk.Output()
		if diff {
			node.split()
			return
		}
		// Success: the committee agreed on ⟨s', cnt'⟩ and a majority of
		// correct members holds the matching segment.
		if node.curVal != node.agreedVal {
			node.dirty = append(node.dirty, node.cur)
			cnt := int(node.agreedVal.Lo)
			if cnt < 0 || cnt > node.cur.Size() {
				cnt = node.cur.Size()
			}
			node.list.ReplaceRange(node.cur.Lo, node.cur.Hi, cnt)
		}
		node.processed = append(node.processed, node.cur)
		node.startSegment()
	}
}

// split divides the current segment in half and recurses (bottom half
// first), the paper's divide-and-conquer step.
func (node *ByzNode) split() {
	node.stack = append(node.stack, node.cur.Top(), node.cur.Bot())
	node.startSegment()
}

// diffThreshold is the "many diff reports" cutoff: with fewer than one
// third Byzantine members per view, ⌈|C|/3⌉ reports guarantee at least
// one correct reporter, while all-correct-consistent segments can never
// reach it.
func (node *ByzNode) diffThreshold() int {
	return (len(node.memberLinks) + 2) / 3
}

// wrapSub converts consensus messages into simulator payloads tagged
// with the current subprotocol counter, appending them to outBuf (the
// consensus machine's slice is scratch, so the copy happens here).
// Messages carrying the payload last boxed — the norm, since the
// machines broadcast one value to the whole committee and votes repeat
// across phases — share that box: SubPayload is immutable once built,
// so recipients can safely alias it across recipients and rounds, and
// the per-broadcast interface allocation disappears.
func (node *ByzNode) wrapSub(msgs []consensus.Msg) {
	if len(msgs) == 0 {
		return
	}
	valueBits := 61 + bitsFor(len(node.cfg.IDs))
	pcBits := bitsFor(node.pc + 1)
	for _, m := range msgs {
		p := SubPayload{
			PC: node.pc, Val: m.Val,
			ValueBits: valueBits, PCBits: pcBits,
		}
		if node.boxed == nil || p != node.boxedKey {
			node.boxed = p
			node.boxedKey = p
		}
		node.outBuf = append(node.outBuf, sim.Message{
			From:    node.idx,
			To:      m.To,
			Payload: node.boxed,
		})
	}
}

// distribute appends the NEW messages (Section 3.1, "Distribute new
// identities") to outBuf: for every identity the member heard directly,
// the rank in the agreed list if the identity is set there and its
// segment is clean, an abstention otherwise. Identities go out in
// ascending order, so the outbox — and with it the order in which a
// mid-send crash filter draws its verdicts — is a function of the run.
func (node *ByzNode) distribute() {
	codec := newByzCodec(node.n, node.cfg.N)
	// Pre-size the arena: pointers into it must stay valid, so it cannot
	// grow while messages reference it.
	if cap(node.newBuf) < node.n {
		node.newBuf = make([]PackedNew, 0, node.n)
	}
	buf := node.newBuf[:0]
	// Links in ascending identity order, shared by every node of the run;
	// rank counts the ones in [1, pos], and one CountRange per gap
	// between consecutive identities keeps it at Rank(id) for the next
	// one, so the pass reads the list once instead of once per identity.
	rank, pos := 0, 0
	for _, link := range node.cfg.pre.linksByID {
		if !node.heard[link] {
			continue
		}
		id := node.cfg.IDs[link]
		rank += node.list.CountRange(pos+1, id-1)
		set := node.list.Get(id)
		var payload NewPayload
		if set && !node.inDirty(id) {
			payload.NewID = rank + 1
		} else {
			payload.Null = true
		}
		if set {
			rank++
		}
		pos = id
		buf = append(buf, codec.encodeNew(payload))
		node.outBuf = append(node.outBuf, sim.Message{From: node.idx, To: link, Payload: &buf[len(buf)-1]})
	}
	node.newBuf = buf
}

func (node *ByzNode) inDirty(id int) bool {
	for _, seg := range node.dirty {
		if seg.ContainsValue(id) {
			return true
		}
	}
	return false
}

// absorbNew accumulates NEW messages from committee members (one per
// sender; only committee links count).
func (node *ByzNode) absorbNew(inbox []sim.Message) {
	for _, msg := range inbox {
		packed, ok := msg.Payload.(*PackedNew)
		if !ok {
			continue
		}
		k := node.memberIndex(msg.From)
		if k < 0 || node.newVotes[k].ok {
			continue
		}
		newByzCodec(node.n, node.cfg.N).decodeNew(packed, &node.newVotes[k].p)
		node.newVotes[k].ok = true
		node.votes++
		node.votesDirty = true
	}
}

// memberIndex returns link's position in memberLinks, or -1 if link is
// not a committee member.
func (node *ByzNode) memberIndex(link int) int {
	i := sort.SearchInts(node.memberLinks, link)
	if i < len(node.memberLinks) && node.memberLinks[i] == link {
		return i
	}
	return -1
}

// tryDecide decides once a strong quorum of committee members responded:
// Byzantine members alone (< |C|/3) can never reach the threshold, and
// once the genuine distribution round arrives, the correct members
// (≥ |C| − t) push the count over it. The plurality non-null value wins;
// clean correct members (> |C|/3 of them, Lemma 3.11) outnumber any value
// Byzantine members fabricate.
func (node *ByzNode) tryDecide() {
	node.votesDirty = false
	if node.decided {
		node.halted = true
		return
	}
	m := len(node.memberLinks)
	if m == 0 {
		return
	}
	t := (m+2)/3 - 1
	if node.votes < m-t {
		return
	}
	tally := node.tally[:0]
	for _, v := range node.newVotes {
		if v.ok && !v.p.Null {
			tally = append(tally, v.p.NewID)
		}
	}
	slices.Sort(tally)
	node.tally = tally
	// Runs of equal values, ascending: taking only a strictly larger run
	// breaks ties toward the smallest identity.
	best, bestCount := 0, 0
	for i := 0; i < len(tally); {
		j := i + 1
		for j < len(tally) && tally[j] == tally[i] {
			j++
		}
		if j-i > bestCount {
			best, bestCount = tally[i], j-i
		}
		i = j
	}
	if bestCount == 0 {
		return
	}
	node.newID = best
	node.decided = true
	node.halted = true
}

func dedupMembers(ms []member) []member {
	out := ms[:0]
	var last member
	for i, m := range ms {
		if i > 0 && m.id == last.id {
			continue
		}
		out = append(out, m)
		last = m
	}
	return out
}
