package campaign

import (
	"fmt"
	"sort"

	"renaming/internal/service"
)

// ServiceOracle re-checks the long-lived renaming service's invariants
// epoch by epoch, independently of the service's own bookkeeping: it
// maintains a shadow name-ownership table built purely from the
// committed deltas each EpochResult reports, and flags any epoch whose
// deltas or population counters disagree with it. One oracle checks one
// service execution; epochs must be fed in order.
//
// Checks per epoch (docs/SERVICE.md):
//
//   - recycle safety: a granted name must be free in the shadow table, a
//     released name must be owned by the releasing client (InvRecycle);
//   - tightness: granted names lie in [1, Capacity] and ranks in
//     [1, batch] (InvNamespace), ranks are distinct (InvUniqueness);
//   - conservation: shadow live = reported live, live + free = Capacity,
//     and the join accounting adds up (InvConservation);
//   - rollback: an aborted epoch reports no deltas and an unchanged
//     population (InvRollback);
//   - per-epoch round ceiling: the inner one-shot run stays within
//     RoundCeiling(batch) (InvRoundCeiling), by default the crash
//     algorithm's deterministic 9·⌈log₂ batch⌉+1 bound;
//   - per-epoch order (CheckOrder, Byzantine core): within a join
//     batch, ranks sorted by original identity strictly increase
//     (InvOrder).
type ServiceOracle struct {
	// Capacity is the service namespace size.
	Capacity int
	// CheckOrder enables the per-epoch rank-order invariant (the
	// Byzantine core's Theorem 1.3 guarantee; the crash core carries no
	// order guarantee, matching Table 1).
	CheckOrder bool
	// RoundCeiling maps a join-batch size to the inner one-shot round
	// bound; nil disables the check.
	RoundCeiling func(batch int) int

	owner map[int]int // shadow: name → client
}

// NewServiceOracle returns the oracle for a service over [1, capacity]
// running the given core: the crash core gets the deterministic
// Theorem 1.2 round ceiling, the Byzantine core gets the per-epoch
// order check (its round budget depends on the realized faults, so no
// fixed per-batch ceiling applies).
func NewServiceOracle(capacity int, core service.Core) *ServiceOracle {
	o := &ServiceOracle{Capacity: capacity, owner: make(map[int]int)}
	if core == service.CoreByzantine {
		o.CheckOrder = true
	} else {
		o.RoundCeiling = CrashRoundCeiling
	}
	return o
}

// CheckEpoch folds one epoch result into the shadow state and returns
// the violations found (Epoch, Invariant, Detail populated; the
// campaign driver fills Exec/Seed/Strategy).
func (o *ServiceOracle) CheckEpoch(er *service.EpochResult) []Violation {
	if o.owner == nil {
		o.owner = make(map[int]int)
	}
	var out []Violation
	add := func(invariant, format string, args ...any) {
		out = append(out, Violation{Epoch: er.Epoch, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	if er.Aborted {
		// Rollback contract: nothing committed, population unchanged.
		if len(er.Assignments) > 0 || len(er.Released) > 0 {
			add(InvRollback, "aborted epoch reports %d assignments and %d releases", len(er.Assignments), len(er.Released))
		}
		if er.Joined != 0 || er.FailedJoins != 0 {
			add(InvRollback, "aborted epoch reports joined=%d failedJoins=%d", er.Joined, er.FailedJoins)
		}
		if er.Live != len(o.owner) {
			add(InvRollback, "aborted epoch reports live=%d, shadow has %d", er.Live, len(o.owner))
		}
	} else {
		for _, rel := range er.Released {
			if have, live := o.owner[rel.Name]; !live || have != rel.Client {
				add(InvRecycle, "client %d released name %d it does not own (shadow owner %d, live=%v)", rel.Client, rel.Name, have, live)
				continue
			}
			delete(o.owner, rel.Name)
		}
		ranks := make(map[int]int, len(er.Assignments))
		for _, a := range er.Assignments {
			if a.Name < 1 || a.Name > o.Capacity {
				add(InvNamespace, "epoch granted name %d outside [1, %d]", a.Name, o.Capacity)
			}
			if a.Rank < 1 || a.Rank > er.JoinsRequested {
				add(InvNamespace, "client %d got rank %d outside [1, batch=%d]", a.Client, a.Rank, er.JoinsRequested)
			}
			if prev, dup := ranks[a.Rank]; dup {
				add(InvUniqueness, "clients %d and %d both got rank %d", prev, a.Client, a.Rank)
			}
			ranks[a.Rank] = a.Client
			if holder, live := o.owner[a.Name]; live {
				add(InvRecycle, "name %d granted to client %d while still owned by client %d", a.Name, a.Client, holder)
				continue
			}
			o.owner[a.Name] = a.Client
		}
		if er.Joined != len(er.Assignments) {
			add(InvConservation, "epoch reports %d joins but %d assignments", er.Joined, len(er.Assignments))
		}
		if er.Joined+er.FailedJoins != er.JoinsRequested {
			add(InvConservation, "joined %d + failed %d ≠ requested %d", er.Joined, er.FailedJoins, er.JoinsRequested)
		}
		if len(er.Released) != er.LeavesRequested {
			add(InvConservation, "epoch reports %d releases for %d leave requests", len(er.Released), er.LeavesRequested)
		}
		if o.CheckOrder {
			byClient := append([]service.Assignment(nil), er.Assignments...)
			sort.Slice(byClient, func(a, b int) bool { return byClient[a].Client < byClient[b].Client })
			for i := 1; i < len(byClient); i++ {
				if byClient[i].Rank <= byClient[i-1].Rank {
					add(InvOrder, "clients %d (rank %d) and %d (rank %d) swap order within the batch",
						byClient[i-1].Client, byClient[i-1].Rank, byClient[i].Client, byClient[i].Rank)
				}
			}
		}
	}

	if er.Live != len(o.owner) {
		add(InvConservation, "epoch reports live=%d, shadow has %d names owned", er.Live, len(o.owner))
	}
	if er.Live+er.FreeNames != o.Capacity {
		add(InvConservation, "live %d + free %d ≠ capacity %d", er.Live, er.FreeNames, o.Capacity)
	}
	if er.PeakLive > o.Capacity {
		add(InvNamespace, "peak live population %d exceeds capacity %d", er.PeakLive, o.Capacity)
	}
	if o.RoundCeiling != nil && er.JoinsRequested > 0 {
		if c := o.RoundCeiling(er.JoinsRequested); er.Rounds > c {
			add(InvRoundCeiling, "epoch one-shot ran %d rounds over a batch of %d (bound %d)", er.Rounds, er.JoinsRequested, c)
		}
	}
	return out
}
