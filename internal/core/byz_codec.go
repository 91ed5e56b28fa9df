package core

import (
	"renaming/internal/bitvec"
	"renaming/internal/sim"
)

// byzCodec bit-packs the Byzantine algorithm's NEW distribution payload
// — the one whose volume scales with committee size × n — into a single
// word. As with crashCodec, billing follows the paper's field widths,
// not the packing: a NEW bills bitsFor(n)+1 (a name in [1, n] plus the
// null flag). The other kinds need no codec: elect/announce are
// one-shot rounds, and the copies of a SubPayload broadcast share one
// boxed value (see wrapSub), so neither contributes per-message state
// that scales with the run.
//
// NEW has this one wire form: correct nodes send *PackedNew from a
// per-distribution arena, and Byzantine attackers encode their
// fabricated values with the same codec into per-round arenas.
type byzCodec struct {
	// idBits spans [0, N], not [0, n]: a rank over the length-N list can
	// exceed n when Byzantine members inflate dirty-segment counts (the
	// recipient's own segment being clean does not bound the ranks below
	// it), and the packed width must hold every value the implementation
	// can produce. Billing stays at the honest bitsFor(n)+1.
	idBits int
	bits   uint8 // billed Bits(): bitsFor(n)+1
}

func newByzCodec(n, bigN int) byzCodec {
	return byzCodec{idBits: bitsFor(bigN), bits: uint8(bitsFor(n) + 1)}
}

// PackedNew is the wire form of a NEW message: identity and null flag
// in one word, billed at the paper's bitsFor(n)+1.
type PackedNew struct {
	w    uint64
	bits uint8
}

var _ sim.Payload = PackedNew{}

// Kind implements sim.Payload.
func (PackedNew) Kind() string { return KindNew }

// Bits implements sim.Payload.
func (p PackedNew) Bits() int { return int(p.bits) }

func (c byzCodec) encodeNew(p NewPayload) PackedNew {
	var scratch [1]uint64
	w := bitvec.NewWriter(scratch[:0])
	w.Append(uint64(p.NewID), c.idBits)
	w.AppendBool(p.Null)
	return PackedNew{w: w.Words()[0], bits: c.bits}
}

func (c byzCodec) decodeNew(p *PackedNew, out *NewPayload) {
	words := [1]uint64{p.w}
	r := bitvec.NewReader(words[:])
	out.NewID = int(r.Take(c.idBits))
	out.Null = r.TakeBool()
}
