package renaming_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"renaming"
)

// TestToSetMatchesEagerMulticast is the representation property test of
// the shared-multicast path: a full adversarial crash execution must
// produce byte-identical telemetry — billed messages, billed bits, and
// the JSON-marshalled Result including the per-round traffic profile —
// whether both halves of the per-phase convergecast travel as shared
// ToSet entries (each node's status multicast, and each committee
// member's response batch, delivered through the engine's aggregate
// layer and the shared committee plan) or as eagerly-expanded
// per-recipient messages. The committee killer with mid-send crashes
// drives the divergence machinery: partial sends force ToSet expansion
// through the crash filter, senders with divergent committee views or
// response links decline the intern and fall back to explicit sends,
// and merged per-recipient views take the committee's pooled
// private-plan path. Billing is decoupled from packing; this test pins
// that the packing is unobservable.
func TestToSetMatchesEagerMulticast(t *testing.T) {
	for _, seed := range []int64{11, 77} {
		for _, workers := range []int{1, 8} {
			var blobs [2][]byte
			for mode, eager := range []bool{false, true} {
				res, err := renaming.RunCrash(256, renaming.CrashSpec{
					Seed:           seed,
					CommitteeScale: 0.02,
					Fault: renaming.FaultSpec{
						Kind:    renaming.FaultCommitteeKiller,
						Budget:  64,
						MidSend: true,
					},
					Profile:        true,
					EngineWorkers:  workers,
					EagerMulticast: eager,
				})
				if err != nil {
					t.Fatalf("seed=%d workers=%d eager=%v: %v", seed, workers, eager, err)
				}
				if !res.Unique {
					t.Fatalf("seed=%d workers=%d eager=%v: surviving nodes did not rename uniquely", seed, workers, eager)
				}
				blob, err := json.Marshal(res)
				if err != nil {
					t.Fatalf("seed=%d workers=%d eager=%v: marshal: %v", seed, workers, eager, err)
				}
				blobs[mode] = blob
			}
			if !bytes.Equal(blobs[0], blobs[1]) {
				t.Errorf("seed=%d workers=%d: ToSet and eager-multicast telemetry differ", seed, workers)
			}
		}
	}
}
