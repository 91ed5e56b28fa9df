package service

import (
	"fmt"
	"math"
	"math/rand"

	"renaming/internal/sim"
)

// churnLabel is the DeriveSeed stream label for trace generation
// ("chrn").
const churnLabel uint64 = 0x6368726e

// TraceSpec parameterizes a seeded join/leave trace.
type TraceSpec struct {
	// Capacity is the service namespace size the trace targets; join
	// batches never exceed the free capacity.
	Capacity int
	// BigN is the original namespace joiner identities are drawn from;
	// defaults to 16·Capacity, and at most math.MaxInt32, as identities
	// are stored as int32. A trace errors out when its cumulative
	// joins exhaust BigN (original identities are never reused, so every
	// recycled *name* provably served distinct clients).
	BigN int
	// JoinMax caps the joins drawn per epoch; defaults to
	// max(1, Capacity/8).
	JoinMax int
	// LeaveMax caps the leaves drawn per epoch; defaults to JoinMax.
	LeaveMax int
	// Seed drives all draws.
	Seed int64
}

func (spec TraceSpec) withDefaults() (TraceSpec, error) {
	if spec.Capacity <= 0 {
		return spec, fmt.Errorf("service: trace capacity must be positive, got %d", spec.Capacity)
	}
	if spec.Capacity > math.MaxInt32 {
		return spec, fmt.Errorf("service: trace capacity %d above %d, the int32 identity bound", spec.Capacity, math.MaxInt32)
	}
	if spec.BigN == 0 {
		spec.BigN = 16 * spec.Capacity
	}
	if spec.BigN > math.MaxInt32 {
		return spec, fmt.Errorf("service: trace namespace N=%d above %d, the int32 identity bound", spec.BigN, math.MaxInt32)
	}
	if spec.BigN < spec.Capacity {
		return spec, fmt.Errorf("service: trace namespace N=%d smaller than capacity %d", spec.BigN, spec.Capacity)
	}
	if spec.JoinMax == 0 {
		spec.JoinMax = max(1, spec.Capacity/8)
	}
	if spec.JoinMax < 1 || spec.JoinMax > spec.Capacity {
		return spec, fmt.Errorf("service: join-max %d outside [1, capacity=%d]", spec.JoinMax, spec.Capacity)
	}
	if spec.LeaveMax == 0 {
		spec.LeaveMax = spec.JoinMax
	}
	if spec.LeaveMax < 0 {
		return spec, fmt.Errorf("service: leave-max %d negative", spec.LeaveMax)
	}
	return spec, nil
}

// TraceDriver draws one epoch's join and leave batches at a time. The
// draws depend on the observed live population (leavers are sampled
// from it, joins are capped by the free capacity), so the trace reacts
// to crashes the way real churn reacts to failed joins — while staying
// fully deterministic in (seed, service execution).
type TraceDriver struct {
	spec TraceSpec
	rng  *rand.Rand
	// ids is a seeded permutation of [1, BigN], consumed left to right:
	// fresh joiner identities, globally distinct across the whole trace.
	ids  []int32
	next int
}

// NewTraceDriver builds a driver; the identity permutation is drawn up
// front so epoch draws stay O(batch).
func NewTraceDriver(spec TraceSpec) (*TraceDriver, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := sim.NewRand(spec.Seed, churnLabel)
	ids := make([]int32, spec.BigN)
	for i := range ids {
		ids[i] = int32(i + 1)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return &TraceDriver{spec: spec, rng: rng, ids: ids}, nil
}

// JoinMax returns the resolved per-epoch join cap (after defaults).
func (d *TraceDriver) JoinMax() int { return d.spec.JoinMax }

// NextEpoch draws the next epoch's batches against the live population
// (ascending client IDs, as Service.LiveClients returns). Leaves are
// sampled without replacement from live; the join count is capped so
// the post-epoch population fits the capacity.
func (d *TraceDriver) NextEpoch(live []int) (joins []Client, leaves []int, err error) {
	if len(live) > 0 && d.spec.LeaveMax > 0 {
		leaveCount := d.rng.Intn(min(d.spec.LeaveMax, len(live)) + 1)
		if leaveCount > 0 {
			for _, idx := range d.rng.Perm(len(live))[:leaveCount] {
				leaves = append(leaves, live[idx])
			}
		}
	}
	room := d.spec.Capacity - (len(live) - len(leaves))
	joinCount := min(1+d.rng.Intn(d.spec.JoinMax), room)
	for i := 0; i < joinCount; i++ {
		if d.next >= len(d.ids) {
			return nil, nil, fmt.Errorf("service: trace exhausted the original namespace after %d joins; raise BigN (=%d)", d.next, d.spec.BigN)
		}
		joins = append(joins, Client{ID: int(d.ids[d.next])})
		d.next++
	}
	return joins, leaves, nil
}
