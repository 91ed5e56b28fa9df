package core

import (
	"renaming/internal/bitvec"
	"renaming/internal/interval"
	"renaming/internal/sim"
)

// crashCodec bit-packs the crash algorithm's two high-volume payloads —
// status and response — into two machine words each, replacing the 64-
// and 72-byte structs that otherwise sit in every in-flight message and
// response arena. Packing is decoupled from billing: Bits() keeps the
// paper's field-width accounting (ID over [N], endpoints over [n],
// counters over [log n + 1]) verbatim, while the packed layout uses
// widths wide enough for every value the implementation can actually
// produce (d and p advance at most once per phase, so both fit under
// TotalRounds). Notify needs no codec: it is already a zero-size struct
// billed at one bit.
//
// Every node derives the codec from the shared CrashConfig, so widths
// agree across the run without ever being put on the wire. The packed
// form is the only crash wire representation: CrashConfig.Validate
// rejects configurations whose fields overflow the two-word layout.
type crashCodec struct {
	idBits int // ID ∈ [1, N]
	ivBits int // interval endpoints ∈ [1, n]
	pcBits int // d and p counters, bounded by the phase budget

	// statusBits / responseBits are the billed Bits() of the unpacked
	// payloads — constant per run, precomputed once.
	statusBits   uint16
	responseBits uint16

	sizeN, sizeSmallN int
	scratch           [2]uint64 // Writer backing, reused across encodes
}

func newCrashCodec(cfg CrashConfig) crashCodec {
	n := len(cfg.IDs)
	logn := log2Ceil(n)
	c := crashCodec{
		idBits:     bitsFor(cfg.N),
		ivBits:     bitsFor(n),
		pcBits:     bitsFor(cfg.TotalRounds() + 1),
		sizeN:      cfg.N,
		sizeSmallN: n,
	}
	c.statusBits = uint16(bitsFor(cfg.N) + 2*bitsFor(n) + 2*bitsFor(logn+1))
	c.responseBits = c.statusBits + 1 // Done flag
	return c
}

// packedWidth is the packed response layout's width in bits (the status
// layout is one bit narrower); it must fit two words.
func (c *crashCodec) packedWidth() int { return c.idBits + 2*c.ivBits + 2*c.pcBits + 1 }

// PackedStatus is the wire form of StatusPayload: the same five fields
// bit-packed into two words. Bits() reports the *billed* width of the
// unpacked payload, so metrics — and hence golden fingerprints — are
// unchanged by packing.
type PackedStatus struct {
	w0, w1 uint64
	bits   uint16
}

var _ sim.Payload = PackedStatus{}

// Kind implements sim.Payload.
func (PackedStatus) Kind() string { return KindStatus }

// Bits implements sim.Payload.
func (p PackedStatus) Bits() int { return int(p.bits) }

// PackedResponse is the wire form of ResponsePayload (PackedStatus plus
// the early-stop Done flag).
type PackedResponse struct {
	w0, w1 uint64
	bits   uint16
}

var _ sim.Payload = PackedResponse{}

// Kind implements sim.Payload.
func (PackedResponse) Kind() string { return KindResponse }

// Bits implements sim.Payload.
func (p PackedResponse) Bits() int { return int(p.bits) }

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
	out.SizeN = c.sizeN
	out.SizeSmallN = c.sizeSmallN
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
	out := PackedResponse{w0: words[0], bits: c.responseBits}
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
	out.SizeN = c.sizeN
	out.SizeSmallN = c.sizeSmallN
}
