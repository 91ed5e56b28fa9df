package service

import (
	"math/rand"
	"reflect"
	"testing"

	"renaming"
)

// The differential suite checks epoch atomicity: before every epoch of
// a random join/leave trace the test takes a complete checkpoint of the
// service, and every epoch that aborts (or fails) must leave the
// service bit-identical to it — free-list slots, cursors and phase
// bits, rename map, grant counters, peak population, and materialized
// live view.

// checkpoint is the full pre-epoch snapshot. Slice copies via
// append([]T(nil), ...) normalize empty to nil, so laziness differences
// in when buffers materialize can't cause spurious nil-vs-empty
// mismatches.
type checkpoint struct {
	Free     FreeListCheckpoint
	Names    map[int]int
	Uses     []uint32
	PeakLive int
	Live     []int
}

func (s *Service) takeCheckpoint() checkpoint {
	return checkpoint{
		Free:     s.free.Checkpoint(),
		Names:    s.Snapshot(),
		Uses:     append([]uint32(nil), s.uses...),
		PeakLive: s.peakLive,
		Live:     append([]int(nil), s.LiveClients()...),
	}
}

// runAbortTrace drives one service through one random trace. The trace
// mixes committed epochs, oversubscribed join batches that drain the
// free list while random leavers release names, crash faults that fail
// a subset of joiners, leave-only epochs, and empty epochs.
func runAbortTrace(t *testing.T, seed int64, epochs int) {
	t.Helper()
	const capacity = 6
	var fault renaming.FaultSpec
	svc, err := New(Config{
		Capacity: capacity,
		BigN:     1 << 20,
		Seed:     seed,
		FaultForEpoch: func(epoch, batch int) renaming.FaultSpec {
			return fault
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rng := rand.New(rand.NewSource(seed))
	nextID := 1
	for epoch := 0; epoch < epochs; epoch++ {
		before := svc.takeCheckpoint()
		live := before.Live

		// Leaves: a random subset of the live population.
		perm := rng.Perm(len(live))
		leaves := make([]int, 0, len(live))
		for _, idx := range perm[:rng.Intn(len(live)+1)] {
			leaves = append(leaves, live[idx])
		}

		// Joins: usually within the post-leave free budget, sometimes
		// deliberately past it to force the drained-free-list abort.
		room := svc.FreeNames() + len(leaves)
		var joinCount int
		if rng.Intn(5) == 0 {
			joinCount = room + 1 + rng.Intn(2)
		} else {
			joinCount = rng.Intn(room + 1)
		}
		joins := make([]Client, joinCount)
		for i := range joins {
			joins[i] = Client{ID: nextID}
			nextID++
		}

		// Crash faults, read by the service through its hook.
		fault = renaming.FaultSpec{}
		if rng.Intn(3) == 0 {
			fault = renaming.FaultSpec{
				Kind:    renaming.FaultRandom,
				Budget:  1 + rng.Intn(2),
				Prob:    0.3,
				MidSend: rng.Intn(2) == 0,
			}
		}

		res, err := svc.RunEpoch(joins, leaves)
		if err == nil && !res.Aborted {
			continue
		}
		if after := svc.takeCheckpoint(); !reflect.DeepEqual(before, after) {
			t.Fatalf("seed %d epoch %d (err=%v): aborted epoch changed the service:\nbefore: %+v\nafter:  %+v",
				seed, epoch, err, before, after)
		}
	}
	if svc.Aborts() == 0 {
		t.Logf("seed %d: trace committed every epoch (no abort exercised)", seed)
	}
}

// TestAbortedEpochLeavesStateUntouched is the deterministic property
// test: many seeds, each a full random trace checked at every abort.
func TestAbortedEpochLeavesStateUntouched(t *testing.T) {
	epochs := 30
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42, 1234}
	if testing.Short() {
		epochs = 15
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		runAbortTrace(t, seed, epochs)
	}
}

// FuzzAbortedEpoch lets the fuzzer hunt for trace shapes where an
// aborted epoch changes the service.
func FuzzAbortedEpoch(f *testing.F) {
	for _, seed := range []int64{1, 77, 4096, -13} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runAbortTrace(t, seed, 12)
	})
}
