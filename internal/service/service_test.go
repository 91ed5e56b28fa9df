package service

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"renaming"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func ids(clients []Client) []int {
	out := make([]int, len(clients))
	for i, c := range clients {
		out[i] = c.ID
	}
	return out
}

func TestServiceJoinLeaveRecycles(t *testing.T) {
	svc := newTestService(t, Config{Capacity: 8, Seed: 3})
	first, err := svc.RunEpoch([]Client{{ID: 10}, {ID: 20}, {ID: 30}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Joined != 3 || first.Recycled != 0 || first.Live != 3 || first.FreeNames != 5 {
		t.Fatalf("epoch 0: %+v", first)
	}
	for _, a := range first.Assignments {
		if a.Name < 1 || a.Name > 8 {
			t.Fatalf("granted name %d outside [1, 8]", a.Name)
		}
	}

	// Leave everyone, then join enough fresh clients to reach the
	// released names: a capacity-8 list holds 5 fresh names, so an
	// 8-strong batch must recycle 3.
	if _, err := svc.RunEpoch(nil, svc.LiveClients()); err != nil {
		t.Fatal(err)
	}
	batch := []Client{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}, {ID: 5}, {ID: 6}, {ID: 7}, {ID: 8}}
	third, err := svc.RunEpoch(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if third.Aborted {
		t.Fatalf("epoch 2 aborted: %s", third.AbortReason)
	}
	if third.Recycled != 3 {
		t.Fatalf("epoch 2 recycled %d names, want 3", third.Recycled)
	}
	if svc.Recycled() != 3 {
		t.Fatalf("cumulative recycled %d, want 3", svc.Recycled())
	}
	if third.Live+third.FreeNames != svc.Capacity() {
		t.Fatalf("conservation: live %d + free %d ≠ %d", third.Live, third.FreeNames, svc.Capacity())
	}
}

func TestServiceValidationLeavesStateUntouched(t *testing.T) {
	svc := newTestService(t, Config{Capacity: 4, Seed: 1})
	if _, err := svc.RunEpoch([]Client{{ID: 5}}, nil); err != nil {
		t.Fatal(err)
	}
	before := svc.Snapshot()
	epoch := svc.Epoch()

	cases := []struct {
		name   string
		joins  []Client
		leaves []int
	}{
		{"joiner out of range", []Client{{ID: 0}}, nil},
		{"joiner beyond N", []Client{{ID: 65}}, nil},
		{"duplicate joiner", []Client{{ID: 7}, {ID: 7}}, nil},
		{"already-live joiner", []Client{{ID: 5}}, nil},
		{"unknown leaver", nil, []int{99}},
		{"duplicate leaver", nil, []int{5, 5}},
	}
	for _, tc := range cases {
		if _, err := svc.RunEpoch(tc.joins, tc.leaves); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if svc.Epoch() != epoch {
		t.Errorf("validation errors advanced the epoch counter to %d", svc.Epoch())
	}
	if got := svc.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Errorf("validation errors mutated the mapping: %v → %v", before, got)
	}
}

func TestServiceEmptyAndSingletonEpochs(t *testing.T) {
	svc := newTestService(t, Config{Capacity: 4, Seed: 9})
	empty, err := svc.RunEpoch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Rounds != 0 || empty.Joined != 0 || empty.Live != 0 {
		t.Fatalf("empty epoch: %+v", empty)
	}
	single, err := svc.RunEpoch([]Client{{ID: 7}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if single.Joined != 1 || len(single.Assignments) != 1 {
		t.Fatalf("singleton epoch: %+v", single)
	}
	if a := single.Assignments[0]; a.Client != 7 || a.Rank != 1 || a.Name != 1 {
		t.Fatalf("singleton assignment: %+v", a)
	}
}

// TestServiceRollbackExact aborts an epoch that also releases two
// leavers — its join batch outgrows the free list even counting the
// names they free — and requires every observable to match the
// pre-epoch state: the mapping, the live view, and the free list's
// exact FIFO order.
func TestServiceRollbackExact(t *testing.T) {
	svc := newTestService(t, Config{Capacity: 8, Seed: 11})
	if _, err := svc.RunEpoch([]Client{{ID: 3}, {ID: 9}, {ID: 12}, {ID: 40}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunEpoch([]Client{{ID: 77}}, []int{9, 40}); err != nil {
		t.Fatal(err)
	}

	wantMap := svc.Snapshot()
	wantLive := append([]int(nil), svc.LiveClients()...)
	wantFree := svc.free.Checkpoint()
	aborts := svc.Aborts()

	// Three live clients and five free names: after the two leavers
	// release theirs, seven names cover at most seven of eight joiners.
	joins := make([]Client, 8)
	for i := range joins {
		joins[i] = Client{ID: 100 + i}
	}
	res, err := svc.RunEpoch(joins, []int{3, 77})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.AbortReason != "free list drained: 8 survivors, 7 free names" {
		t.Fatalf("epoch did not abort: %+v", res)
	}
	if len(res.Assignments) != 0 || len(res.Released) != 0 || res.Joined != 0 {
		t.Fatalf("aborted epoch reports deltas: %+v", res)
	}
	if svc.Aborts() != aborts+1 {
		t.Fatalf("abort counter %d, want %d", svc.Aborts(), aborts+1)
	}

	if got := svc.Snapshot(); !reflect.DeepEqual(got, wantMap) {
		t.Errorf("mapping after abort: %v, want %v", got, wantMap)
	}
	if gotLive := append([]int(nil), svc.LiveClients()...); !reflect.DeepEqual(gotLive, wantLive) {
		t.Errorf("live view after abort: %v, want %v", gotLive, wantLive)
	}
	if got := svc.free.Checkpoint(); !reflect.DeepEqual(got, wantFree) {
		t.Errorf("free list after abort: %+v, want the pre-epoch %+v", got, wantFree)
	}

	// The service keeps working after an abort; the aborted epoch's
	// number is consumed (epoch indices stay aligned with the trace).
	if svc.Epoch() != 3 {
		t.Fatalf("epoch counter %d after abort, want 3", svc.Epoch())
	}
	next, err := svc.RunEpoch([]Client{{ID: 55}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.Aborted || next.Joined != 1 {
		t.Fatalf("post-abort epoch: %+v", next)
	}
}

// TestServiceAbortsWhenFreeListDrained joins past the capacity in one
// batch and requires the drained-free-list abort with the population
// unchanged.
func TestServiceAbortsWhenFreeListDrained(t *testing.T) {
	svc := newTestService(t, Config{Capacity: 2, Seed: 5})
	if _, err := svc.RunEpoch([]Client{{ID: 1}, {ID: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := svc.RunEpoch([]Client{{ID: 3}, {ID: 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || !strings.Contains(res.AbortReason, "free list drained") {
		t.Fatalf("overfull epoch: %+v", res)
	}
	if svc.Live() != 2 || svc.FreeNames() != 0 {
		t.Fatalf("population after abort: live=%d free=%d", svc.Live(), svc.FreeNames())
	}
}

func TestServiceByzantineCore(t *testing.T) {
	svc := newTestService(t, Config{Capacity: 16, Seed: 21, Core: CoreByzantine})
	res, err := svc.RunEpoch([]Client{{ID: 40}, {ID: 8}, {ID: 99}, {ID: 23}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted || res.Joined != 4 {
		t.Fatalf("byzantine epoch: %+v", res)
	}
	// Theorem 1.3 order preservation surfaces as per-epoch rank order:
	// sort assignments by client ID and ranks must strictly increase.
	byClient := append([]Assignment(nil), res.Assignments...)
	for i := range byClient {
		for j := i + 1; j < len(byClient); j++ {
			a, b := byClient[i], byClient[j]
			if (a.Client < b.Client) != (a.Rank < b.Rank) {
				t.Fatalf("ranks not order-preserving: %+v vs %+v", a, b)
			}
		}
	}
}

// TestServiceAbortsBrokenCommittee: every joiner of a 9-client Byzantine
// epoch sits on the committee. Crashing three members right after
// election leaves no NEW quorum, so the one-shot run exhausts its
// rounds outside the committee assumption; the epoch must abort as a
// broken committee and write nothing. Crashing two keeps the assumption,
// and the seven survivors join.
func TestServiceAbortsBrokenCommittee(t *testing.T) {
	for _, crashed := range [][]int{{0, 1}, {0, 1, 2}} {
		svc := newTestService(t, Config{Capacity: 64, Seed: 1, Core: CoreByzantine,
			FaultForEpoch: func(epoch, batch int) renaming.FaultSpec {
				return renaming.FaultSpec{Kind: renaming.FaultBurst, Round: 2, Nodes: crashed}
			}})
		joins := make([]Client, 9)
		for i := range joins {
			joins[i] = Client{ID: 10 * (i + 1)}
		}
		res, err := svc.RunEpoch(joins, nil)
		if err != nil {
			t.Fatalf("%d crashed: %v", len(crashed), err)
		}
		if len(crashed) == 2 {
			if res.Aborted || res.Joined != 7 {
				t.Fatalf("2 crashed: aborted=%v (%s), joined %d; want a committed epoch with 7 joins", res.Aborted, res.AbortReason, res.Joined)
			}
			continue
		}
		if !res.Aborted || res.AbortReason != "committee assumption broken" || svc.Live() != 0 {
			t.Fatalf("3 crashed: aborted=%v reason=%q live=%d; want a broken-committee abort with nobody live", res.Aborted, res.AbortReason, svc.Live())
		}
	}
}

// TestSizesBeyondInt32AreErrors checks that both withDefaults reject a
// size the int32 free list or identity permutation cannot hold, before
// a default is derived from it. Only withDefaults runs: New and
// NewTraceDriver would allocate gigabytes for the accepted rows.
func TestSizesBeyondInt32AreErrors(t *testing.T) {
	const over = math.MaxInt32 + 1
	check := func(what string, err error, want string) {
		t.Helper()
		switch {
		case want == "" && err != nil:
			t.Errorf("%s: %v", what, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: error %v, want one containing %q", what, err, want)
		}
	}
	configs := []struct {
		cfg  Config
		want string // "" accepts
	}{
		{Config{Capacity: math.MaxInt32}, ""},
		{Config{Capacity: over}, "capacity 2147483648 above 2147483647"},
		{Config{Capacity: 1 << 62}, "capacity 4611686018427387904 above 2147483647"},
	}
	for _, tc := range configs {
		_, err := tc.cfg.withDefaults()
		check(fmt.Sprintf("Config{Capacity: %d}", tc.cfg.Capacity), err, tc.want)
	}
	traces := []struct {
		spec TraceSpec
		want string
	}{
		{TraceSpec{Capacity: 8, BigN: math.MaxInt32}, ""},
		{TraceSpec{Capacity: over}, "trace capacity 2147483648 above 2147483647"},
		// The default N of 16·Capacity wrapped to 0 here.
		{TraceSpec{Capacity: 1 << 62}, "trace capacity 4611686018427387904 above 2147483647"},
		{TraceSpec{Capacity: 8, BigN: over}, "trace namespace N=2147483648 above 2147483647"},
		{TraceSpec{Capacity: 1 << 28}, "trace namespace N=4294967296 above 2147483647"},
	}
	for _, tc := range traces {
		_, err := tc.spec.withDefaults()
		check(fmt.Sprintf("TraceSpec{Capacity: %d, BigN: %d}", tc.spec.Capacity, tc.spec.BigN), err, tc.want)
	}
}

func TestEpochSeedDistinctPerEpoch(t *testing.T) {
	seen := make(map[int64]int)
	for epoch := 0; epoch < 100; epoch++ {
		s := EpochSeed(123, epoch)
		if prev, dup := seen[s]; dup {
			t.Fatalf("epochs %d and %d share seed %d", prev, epoch, s)
		}
		seen[s] = epoch
	}
	if EpochSeed(123, 7) != EpochSeed(123, 7) {
		t.Fatal("EpochSeed not deterministic")
	}
	if EpochSeed(123, 7) == EpochSeed(124, 7) {
		t.Fatal("EpochSeed ignores the service seed")
	}
}

func TestTraceDriverDeterministicAndBounded(t *testing.T) {
	mk := func() *TraceDriver {
		d, err := NewTraceDriver(TraceSpec{Capacity: 32, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := mk(), mk()
	var live []int
	next := 1000
	for epoch := 0; epoch < 40; epoch++ {
		ja, la, errA := a.NextEpoch(live)
		jb, lb, errB := b.NextEpoch(live)
		if errA != nil || errB != nil {
			t.Fatalf("epoch %d: %v / %v", epoch, errA, errB)
		}
		if !reflect.DeepEqual(ids(ja), ids(jb)) || !reflect.DeepEqual(la, lb) {
			t.Fatalf("epoch %d: drivers diverged", epoch)
		}
		if len(live)-len(la)+len(ja) > 32 {
			t.Fatalf("epoch %d: batch overflows capacity", epoch)
		}
		// Maintain a fake live population (joins all succeed).
		drop := make(map[int]bool, len(la))
		for _, c := range la {
			drop[c] = true
		}
		var kept []int
		for _, c := range live {
			if !drop[c] {
				kept = append(kept, c)
			}
		}
		for range ja {
			kept = append(kept, next)
			next++
		}
		live = kept
	}
}

// TestLiveViewLazyMaterialization runs several epochs of joins and
// leaves without ever reading the live view in between, then requires
// one LiveClients call to fold every pending delta into the exact
// sorted membership (the names map's key set). Also checks repeated
// calls are stable and that Live() never depends on materialization.
func TestLiveViewLazyMaterialization(t *testing.T) {
	svc := newTestService(t, Config{Capacity: 16, Seed: 21})
	if _, err := svc.RunEpoch([]Client{{ID: 9}, {ID: 4}, {ID: 30}, {ID: 12}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunEpoch([]Client{{ID: 2}, {ID: 50}}, []int{4, 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunEpoch([]Client{{ID: 4}}, []int{2}); err != nil {
		t.Fatal(err)
	}
	if got, want := svc.Live(), len(svc.Snapshot()); got != want {
		t.Fatalf("Live() = %d before materialization, want %d", got, want)
	}
	want := make([]int, 0, svc.Live())
	for c := range svc.Snapshot() {
		want = append(want, c)
	}
	sort.Ints(want)
	got := append([]int(nil), svc.LiveClients()...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LiveClients = %v, want %v", got, want)
	}
	if again := svc.LiveClients(); !reflect.DeepEqual(append([]int(nil), again...), want) {
		t.Fatalf("second LiveClients call diverged: %v", again)
	}
}
