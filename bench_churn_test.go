package renaming_test

import (
	"fmt"
	"testing"

	"renaming/internal/service"
)

// BenchmarkChurnEpoch measures the steady-state per-epoch cost of the
// long-lived renaming service — one trace draw, one one-shot crash run
// over the join batch, free-list recycling, and the commit — at the
// capacities the E11 churn experiment sweeps. The trace runs warm (the
// population hovers around capacity, so most grants are recycles),
// which is the regime a long-lived service lives in. The CI bench-smoke
// job runs this at -benchtime 1x; make bench records it into
// BENCH_churn.json.
func BenchmarkChurnEpoch(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// BigN far above the default 16·n keeps the identity stream
			// from exhausting at large -benchtime; draws stay O(batch).
			spec := service.TraceSpec{Capacity: n, BigN: 4096 * n, Seed: int64(n)}
			cfg := service.Config{Capacity: n, BigN: 4096 * n, Seed: int64(n)}
			driver, err := service.NewTraceDriver(spec)
			if err != nil {
				b.Fatal(err)
			}
			svc, err := service.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			// Warm the service to its steady-state population so every
			// measured epoch does real join/leave/recycle work.
			for epoch := 0; epoch < 8; epoch++ {
				joins, leaves, err := driver.NextEpoch(svc.LiveClients())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := svc.RunEpoch(joins, leaves); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				joins, leaves, err := driver.NextEpoch(svc.LiveClients())
				if err != nil {
					b.Fatal(err)
				}
				res, err := svc.RunEpoch(joins, leaves)
				if err != nil {
					b.Fatal(err)
				}
				if res.Aborted {
					b.Fatalf("epoch %d aborted: %s", res.Epoch, res.AbortReason)
				}
			}
		})
	}

	// The fixedbatch rows hold the epoch workload constant (128 joins and
	// leaves per epoch, identities from a shared 2^22 namespace) and sweep
	// only the Capacity knob. Under snapshot rollback these rows scaled
	// linearly in Capacity — every epoch copied the whole owner table and
	// free-list ring. An epoch now decides before it writes, so it
	// touches only its batch, and with the lazy live view the per-epoch
	// cost is O(batch): the rows should stay flat from cap=256 through
	// the cap=2^20 smoke row (the 1.5x ratio gate in EXPERIMENTS.md E11
	// reads these from BENCH_churn.json).
	const fixedBatch = 128
	for _, capacity := range []int{256, 4096, 65536, 1 << 20} {
		capacity := capacity
		b.Run(fmt.Sprintf("fixedbatch/cap=%d", capacity), func(b *testing.B) {
			spec := service.TraceSpec{
				Capacity: capacity, BigN: 1 << 22, Seed: 99,
				JoinMax: fixedBatch, LeaveMax: fixedBatch,
			}
			cfg := service.Config{Capacity: capacity, BigN: 1 << 22, Seed: 99}
			driver, err := service.NewTraceDriver(spec)
			if err != nil {
				b.Fatal(err)
			}
			svc, err := service.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			for epoch := 0; epoch < 8; epoch++ {
				joins, leaves, err := driver.NextEpoch(svc.LiveClients())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := svc.RunEpoch(joins, leaves); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				joins, leaves, err := driver.NextEpoch(svc.LiveClients())
				if err != nil {
					b.Fatal(err)
				}
				res, err := svc.RunEpoch(joins, leaves)
				if err != nil {
					b.Fatal(err)
				}
				if res.Aborted {
					b.Fatalf("epoch %d aborted: %s", res.Epoch, res.AbortReason)
				}
			}
		})
	}
}
