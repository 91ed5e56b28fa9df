package renaming_test

import (
	"os"
	"runtime"
	"testing"

	"renaming"
	"renaming/internal/service"
)

// TestCrashMemorySmoke is the CI peak-RSS smoke gate: a whole-run crash
// execution at n=2^16 under the committee-killer adversary must stay
// under a fixed live-heap ceiling. The ceiling is calibrated ~2× above
// the measured peak with shared committee response batches (see
// docs/MEMORY.md for the scaling model), so it trips on a regression
// that reintroduces per-node O(n) state — per-node inbox slot arrays,
// materialized per-round traces — without flaking on allocator noise. CI runs the
// job under GOMEMLIMIT as a second, harder backstop: blowing the limit
// turns into GC thrash and a timeout instead of a green run.
//
// Gated behind RENAMING_MEMSMOKE=1 because the run takes tens of
// seconds — it is a dedicated CI job, not part of `go test ./...`.
func TestCrashMemorySmoke(t *testing.T) {
	if os.Getenv("RENAMING_MEMSMOKE") != "1" {
		t.Skip("set RENAMING_MEMSMOKE=1 to run the memory smoke gate")
	}
	const n = 1 << 16
	const ceilingMB = 3072.0 // measured peak 1.36–1.52 GB (2.6 GB with per-link responses)

	runtime.GC()
	w := watchHeap()
	res, err := renaming.RunCrash(n, renaming.CrashSpec{
		Seed:           1,
		CommitteeScale: 0.02,
		Profile:        true,
		Fault: renaming.FaultSpec{
			Kind: renaming.FaultCommitteeKiller, Budget: 64, MidSend: true,
		},
	})
	peak := w.PeakMB()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique {
		t.Fatal("run did not produce unique names")
	}
	t.Logf("n=%d whole run: peak live heap %.1f MB, %d rounds, %d messages",
		n, peak, res.Rounds, res.Messages)
	if peak > ceilingMB {
		t.Fatalf("peak live heap %.1f MB exceeds the %.0f MB ceiling — "+
			"per-node state is scaling again (see docs/MEMORY.md)", peak, ceilingMB)
	}
}

// TestChurnMemorySmoke is the per-epoch allocation gate for the
// long-lived service: at Capacity=2^20 with a fixed 128-client batch,
// steady-state epochs must allocate O(batch), not O(Capacity). The
// snapshot-rollback design copied the 4 MB owner table plus the 4 MB
// free-list ring every epoch (≥8 MB/epoch); an epoch now decides before
// it writes and touches only its batch, and with the lazy live view it
// costs the one-shot run's own footprint.
// The 2 MB/epoch ceiling sits far above the measured steady state but
// well under one snapshot, so it trips on any reintroduced full-state
// copy. Shares the RENAMING_MEMSMOKE=1 gate and CI job with the crash
// smoke above.
func TestChurnMemorySmoke(t *testing.T) {
	if os.Getenv("RENAMING_MEMSMOKE") != "1" {
		t.Skip("set RENAMING_MEMSMOKE=1 to run the memory smoke gate")
	}
	const (
		capacity        = 1 << 20
		batch           = 128
		warmup          = 4
		measured        = 32
		ceilingPerEpoch = 2 << 20 // bytes
	)
	spec := service.TraceSpec{
		Capacity: capacity, BigN: 1 << 22, Seed: 7,
		JoinMax: batch, LeaveMax: batch,
	}
	driver, err := service.NewTraceDriver(spec)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Capacity: capacity, BigN: 1 << 22, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	epoch := func() {
		joins, leaves, err := driver.NextEpoch(svc.LiveClients())
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.RunEpoch(joins, leaves)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborted {
			t.Fatalf("epoch %d aborted: %s", res.Epoch, res.AbortReason)
		}
	}
	for i := 0; i < warmup; i++ {
		epoch()
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		epoch()
	}
	runtime.ReadMemStats(&after)
	perEpoch := (after.TotalAlloc - before.TotalAlloc) / measured
	t.Logf("capacity=%d batch=%d: %.1f KB allocated per epoch over %d epochs",
		capacity, batch, float64(perEpoch)/1024, measured)
	if perEpoch > ceilingPerEpoch {
		t.Fatalf("per-epoch allocation %.1f KB exceeds the %.0f KB ceiling — "+
			"epoch cost is scaling with Capacity again (snapshot rollback "+
			"alone would be ≥8 MB/epoch at this capacity)",
			float64(perEpoch)/1024, float64(ceilingPerEpoch)/1024)
	}
}
