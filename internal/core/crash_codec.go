package core

import (
	"fmt"
	"slices"

	"renaming/internal/bitvec"
	"renaming/internal/interval"
	"renaming/internal/sim"
)

// crashCodec bit-packs the crash algorithm's two high-volume payloads —
// status and response — into two machine words each; StatusPayload and
// ResponsePayload are only their decoded forms. Packing is decoupled
// from billing: the billed widths keep the paper's field-width
// accounting (ID over [N], endpoints over [n], counters over
// [log n + 1]) verbatim, and this codec is their one source, while the
// packed layout uses widths wide enough for every value the
// implementation can actually produce (d and p advance at most once per
// phase, so both fit under TotalRounds). Notify needs no codec: it is
// already a zero-size struct billed at one bit.
//
// Every node derives the codec from the shared CrashConfig, so widths
// agree across the run without ever being put on the wire. The packed
// form is the only crash wire representation: CrashConfig.Validate
// rejects configurations whose fields overflow the two-word layout.
type crashCodec struct {
	idBits int // ID ∈ [1, N]
	ivBits int // interval endpoints ∈ [1, n]
	pcBits int // d and p counters, bounded by the phase budget

	// statusBits / responseBits are the billed widths of one status and
	// one response — constant per run, precomputed once.
	statusBits   uint16
	responseBits uint16

	scratch [2]uint64 // Writer backing, reused across encodes
}

func newCrashCodec(cfg CrashConfig) crashCodec {
	n := len(cfg.IDs)
	logn := log2Ceil(n)
	c := crashCodec{
		idBits: bitsFor(cfg.N),
		ivBits: bitsFor(n),
		pcBits: bitsFor(cfg.TotalRounds() + 1),
	}
	// ID ∈ [N]; interval endpoints ∈ [n]; d, p ≤ ceil(log2 n)+1 (once p
	// reaches log2 n everyone is elected).
	c.statusBits = uint16(bitsFor(cfg.N) + 2*bitsFor(n) + 2*bitsFor(logn+1))
	c.responseBits = c.statusBits + 1 // Done flag
	return c
}

// packedWidth is the packed response layout's width in bits (the status
// layout is one bit narrower); it must fit two words.
func (c *crashCodec) packedWidth() int { return c.idBits + 2*c.ivBits + 2*c.pcBits + 1 }

// PackedStatus is the wire form of StatusPayload: its four fields
// bit-packed into two words. Bits() reports the billed width under the
// paper's field accounting, not the packed width, so metrics — and hence
// golden fingerprints — are unchanged by packing.
type PackedStatus struct {
	w0, w1 uint64
	bits   uint16
}

var _ sim.Payload = PackedStatus{}

// Kind implements sim.Payload.
func (PackedStatus) Kind() string { return KindStatus }

// Bits implements sim.Payload.
func (p PackedStatus) Bits() int { return int(p.bits) }

// PackedResponse is the packed form of one ResponsePayload (the status
// fields plus the early-stop Done flag). It travels only inside a
// PackedResponses batch, which carries the billed width.
type PackedResponse struct {
	w0, w1 uint64
}

// PackedResponses is one committee member's response batch for a
// phase: the packed decision for every status sender, one per link. It
// travels as a single ToSet entry over its links (or, where the set is
// not interned, as one explicit message per link, all carrying the same
// batch), and the engine bills it per recipient as one response-width
// wire message — KindResponse and the billed width of one response — so
// every metric counts exactly what per-link responses would. Contract: a
// recipient reads only the entry at its own link.
type PackedResponses struct {
	links []int32 // status senders, strictly ascending
	resp  []PackedResponse
	bits  uint16
}

var _ sim.Payload = (*PackedResponses)(nil)

// Kind implements sim.Payload.
func (*PackedResponses) Kind() string { return KindResponse }

// Bits implements sim.Payload: the billed width of one response.
func (b *PackedResponses) Bits() int { return int(b.bits) }

// at returns the response addressed to link. A batch reaches only the
// links it holds, so a miss is a delivery fault. Links are strictly
// ascending from 0 or above, so links[j] >= j: entry link holds link
// exactly when no link below it is missing — always, for a batch over
// the universal set — and is then read without a search.
func (b *PackedResponses) at(link int) *PackedResponse {
	if link < len(b.links) && b.links[link] == int32(link) {
		return &b.resp[link]
	}
	j, ok := slices.BinarySearch(b.links, int32(link))
	if !ok {
		panic(fmt.Sprintf("core: response batch holds no entry for link %d", link))
	}
	return &b.resp[j]
}

// encodeBatch stamps p into the decisions and packs them into b's arena,
// reusing its capacity; the caller sets b.links.
func (c *crashCodec) encodeBatch(b *PackedResponses, decisions []ResponsePayload, p int) {
	if cap(b.resp) < len(decisions) {
		b.resp = make([]PackedResponse, len(decisions))
	}
	b.resp = b.resp[:len(decisions)]
	for j, r := range decisions {
		r.P = p
		b.resp[j] = c.encodeResponse(r)
	}
	b.bits = c.responseBits
}

func (c *crashCodec) encodeStatus(s StatusPayload) PackedStatus {
	w := bitvec.NewWriter(c.scratch[:0])
	w.Append(uint64(s.ID), c.idBits)
	w.Append(uint64(s.I.Lo), c.ivBits)
	w.Append(uint64(s.I.Hi), c.ivBits)
	w.Append(uint64(s.D), c.pcBits)
	w.Append(uint64(s.P), c.pcBits)
	words := w.Words()
	out := PackedStatus{w0: words[0], bits: c.statusBits}
	if len(words) > 1 {
		out.w1 = words[1]
	}
	return out
}

func (c *crashCodec) decodeStatus(p *PackedStatus, out *StatusPayload) {
	words := [2]uint64{p.w0, p.w1}
	r := bitvec.NewReader(words[:])
	out.ID = int(r.Take(c.idBits))
	out.I = interval.Interval{Lo: int(r.Take(c.ivBits)), Hi: int(r.Take(c.ivBits))}
	out.D = int(r.Take(c.pcBits))
	out.P = int(r.Take(c.pcBits))
}

func (c *crashCodec) encodeResponse(s ResponsePayload) PackedResponse {
	w := bitvec.NewWriter(c.scratch[:0])
	w.Append(uint64(s.ID), c.idBits)
	w.Append(uint64(s.I.Lo), c.ivBits)
	w.Append(uint64(s.I.Hi), c.ivBits)
	w.Append(uint64(s.D), c.pcBits)
	w.Append(uint64(s.P), c.pcBits)
	w.AppendBool(s.Done)
	words := w.Words()
	out := PackedResponse{w0: words[0]}
	if len(words) > 1 {
		out.w1 = words[1]
	}
	return out
}

func (c *crashCodec) decodeResponse(p *PackedResponse, out *ResponsePayload) {
	words := [2]uint64{p.w0, p.w1}
	r := bitvec.NewReader(words[:])
	out.ID = int(r.Take(c.idBits))
	out.I = interval.Interval{Lo: int(r.Take(c.ivBits)), Hi: int(r.Take(c.ivBits))}
	out.D = int(r.Take(c.pcBits))
	out.P = int(r.Take(c.pcBits))
	out.Done = r.TakeBool()
}
