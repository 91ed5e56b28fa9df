package core

import (
	"math/rand"
	"testing"

	"renaming/internal/interval"
)

// randomCrashCfg draws a CrashConfig shell (sizes only) for codec tests.
func randomCrashCfg(rng *rand.Rand) CrashConfig {
	n := 1 << (1 + rng.Intn(16)) // 2 .. 65536
	return CrashConfig{N: n * (1 + rng.Intn(8)), IDs: make([]int, n)}
}

// paperStatusBits is the paper's field accounting for ⟨ID, I, d, p⟩: the
// ID over [N], both interval endpoints over [n], and d and p over
// [ceil(log2 n) + 1]. A response adds the one-bit Done flag.
func paperStatusBits(cfg CrashConfig) int {
	n := len(cfg.IDs)
	return bitsFor(cfg.N) + 2*bitsFor(n) + 2*bitsFor(log2Ceil(n)+1)
}

// TestCrashCodecRoundTrip is the codec property test: for random
// configurations and random in-domain payloads, encode→decode is the
// identity and the packed payloads bill the paper's field widths, not
// their packed widths — the invariant that keeps golden fingerprints
// byte-identical under packing.
func TestCrashCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		cfg := randomCrashCfg(rng)
		n := len(cfg.IDs)
		c := newCrashCodec(cfg)
		if w := c.packedWidth(); w > 128 {
			t.Fatalf("trial %d: layout is %d bits for N=%d n=%d", trial, w, cfg.N, n)
		}
		lo := 1 + rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		s := StatusPayload{
			ID: 1 + rng.Intn(cfg.N),
			I:  interval.New(lo, hi),
			D:  rng.Intn(cfg.TotalRounds() + 1),
			P:  rng.Intn(cfg.TotalRounds() + 1),
		}
		ps := c.encodeStatus(s)
		if want := paperStatusBits(cfg); ps.Bits() != want {
			t.Fatalf("trial %d: packed status bills %d bits, want %d", trial, ps.Bits(), want)
		}
		var back StatusPayload
		c.decodeStatus(&ps, &back)
		if back != s {
			t.Fatalf("trial %d: status round-trip %+v != %+v", trial, back, s)
		}

		r := ResponsePayload{ID: s.ID, I: s.I, D: s.D, P: s.P, Done: rng.Intn(2) == 0}
		var b PackedResponses
		c.encodeBatch(&b, []ResponsePayload{r}, r.P)
		if want := paperStatusBits(cfg) + 1; b.Bits() != want {
			t.Fatalf("trial %d: response batch bills %d bits, want %d", trial, b.Bits(), want)
		}
		var rback ResponsePayload
		c.decodeResponse(&b.resp[0], &rback)
		if rback != r {
			t.Fatalf("trial %d: response round-trip %+v != %+v", trial, rback, r)
		}
	}
}

// TestCrashCodecKinds pins the wire kinds: metrics bucket packed
// payloads under the kinds of the messages they encode.
func TestCrashCodecKinds(t *testing.T) {
	if (PackedStatus{}).Kind() != KindStatus {
		t.Fatal("packed status kind differs from KindStatus")
	}
	if (&PackedResponses{}).Kind() != KindResponse {
		t.Fatal("response batch kind differs from KindResponse")
	}
	if (PackedNew{}).Kind() != KindNew {
		t.Fatal("packed new kind differs from KindNew")
	}
}

// TestByzCodecRoundTrip checks the NEW codec against its decoded form:
// the round-trip is the identity (including identities above n, which
// Byzantine-inflated ranks can produce) and billing is the paper's
// bitsFor(n)+1 whatever the packed width.
func TestByzCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 << (1 + rng.Intn(16))
		bigN := n * (1 + rng.Intn(8))
		c := newByzCodec(n, bigN)
		var p NewPayload
		if rng.Intn(4) == 0 {
			p.Null = true
		} else {
			p.NewID = 1 + rng.Intn(bigN)
		}
		pn := c.encodeNew(p)
		if pn.Bits() != bitsFor(n)+1 {
			t.Fatalf("trial %d: packed new bills %d bits, want bitsFor(%d)+1 = %d", trial, pn.Bits(), n, bitsFor(n)+1)
		}
		var back NewPayload
		c.decodeNew(&pn, &back)
		if back != p {
			t.Fatalf("trial %d: new round-trip %+v != %+v", trial, back, p)
		}
	}
}

// FuzzCrashCodecRoundTrip fuzzes the response codec (the wider of the
// two layouts) over configuration and field bytes. Any in-domain
// payload that fails to round-trip, or bills other than the paper's
// field widths, fails.
func FuzzCrashCodecRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(7), uint16(3), uint16(9), uint8(1), uint8(1), false)
	f.Add(uint8(16), uint8(7), uint16(65535), uint16(1), uint16(65535), uint8(200), uint8(0), true)
	f.Add(uint8(1), uint8(0), uint16(0), uint16(0), uint16(0), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, logn, nMul uint8, id, lo, span uint16, d, p uint8, done bool) {
		n := 1 << (1 + int(logn)%16)
		cfg := CrashConfig{N: n * (1 + int(nMul)%8), IDs: make([]int, n)}
		c := newCrashCodec(cfg)
		loV := 1 + int(lo)%n
		hiV := loV + int(span)%(n-loV+1)
		r := ResponsePayload{
			ID:   1 + int(id)%cfg.N,
			I:    interval.New(loV, hiV),
			D:    int(d) % (cfg.TotalRounds() + 1),
			P:    int(p) % (cfg.TotalRounds() + 1),
			Done: done,
		}
		var b PackedResponses
		c.encodeBatch(&b, []ResponsePayload{r}, r.P)
		if want := paperStatusBits(cfg) + 1; b.Bits() != want {
			t.Fatalf("batch bills %d, want %d", b.Bits(), want)
		}
		var back ResponsePayload
		c.decodeResponse(&b.resp[0], &back)
		if back != r {
			t.Fatalf("round-trip %+v != %+v", back, r)
		}
	})
}
