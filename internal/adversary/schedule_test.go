package adversary

import (
	"testing"

	"renaming/internal/sim"
)

// filterChoices materializes a mid-send filter's per-recipient verdicts
// so two filters can be compared for byte-identical behaviour.
func filterChoices(t *testing.T, f sim.SendFilter, n int) []bool {
	t.Helper()
	if f == nil {
		t.Fatal("expected a mid-send filter, got nil")
	}
	out := make([]bool, n)
	for to := 0; to < n; to++ {
		out[to] = f(to)
	}
	return out
}

// orderFor runs one round of the schedule and returns the single crash
// order it issued for the given round.
func orderFor(t *testing.T, sched *EventSchedule, view sim.View) sim.CrashOrder {
	t.Helper()
	orders := sched.Crashes(view)
	if len(orders) != 1 {
		t.Fatalf("round %d issued %d orders, want 1", view.Round, len(orders))
	}
	return orders[0]
}

// TestMidSendFilterStableUnderEventRemoval is the regression test for
// the per-event filter identity bug: a later event's delivery filter
// must be byte-identical after an earlier event is removed — exactly
// the operation ddmin shrinking performs. Filters keyed by slice index
// would let removing event 0 silently reshuffle event 1's coin flips.
func TestMidSendFilterStableUnderEventRemoval(t *testing.T) {
	const n = 64
	salted := Event{Round: 1, Node: 2, MidSend: true, Salt: 0xfeedface}
	full := &EventSchedule{Seed: 11, Events: []Event{{Round: 0, Node: 1}, salted}}
	dropped := &EventSchedule{Seed: 11, Events: []Event{salted}}

	view := viewFor(n, 1, nil)
	want := filterChoices(t, orderFor(t, full, view).Filter, n)
	got := filterChoices(t, orderFor(t, dropped, view).Filter, n)
	for to := range want {
		if want[to] != got[to] {
			t.Fatalf("recipient %d: filter verdict changed from %v to %v after removing an earlier event",
				to, want[to], got[to])
		}
	}
}

// TestEventScheduleTargetedClaimsPerRound: committee-targeted events of
// the same round resolve to distinct members (lowest alive index first,
// earlier events claiming before later ones), and the claimed set
// resets between rounds.
func TestEventScheduleTargetedClaimsPerRound(t *testing.T) {
	committee := map[int]bool{3: true, 5: true, 8: true}
	sched := &EventSchedule{Seed: 1, Events: []Event{
		{Round: 0, Node: 3},               // explicit crash claims 3 first
		{Round: 0, TargetCommittee: true}, // must skip claimed 3 → 5
		{Round: 0, TargetCommittee: true}, // → 8
		{Round: 1, TargetCommittee: true}, // fresh round, fresh claims
	}}
	orders := sched.Crashes(viewFor(12, 0, committee))
	if len(orders) != 3 {
		t.Fatalf("round 0 issued %d orders, want 3: %+v", len(orders), orders)
	}
	if orders[0].Node != 3 || orders[1].Node != 5 || orders[2].Node != 8 {
		t.Fatalf("round 0 targets = %d,%d,%d, want 3,5,8",
			orders[0].Node, orders[1].Node, orders[2].Node)
	}
	// Round 1: members 3/5/8 are now dead; only 9 is committee-visible.
	view := viewFor(12, 1, map[int]bool{9: true})
	for _, dead := range []int{3, 5, 8} {
		view.Alive[dead] = false
	}
	orders = sched.Crashes(view)
	if len(orders) != 1 || orders[0].Node != 9 {
		t.Fatalf("round 1 orders = %+v, want one crash of node 9", orders)
	}
	if sched.Used() != 4 {
		t.Fatalf("Used() = %d, want 4", sched.Used())
	}
}

// TestEventScheduleDeadTargetNotUsed: events whose explicit target is
// already dead are skipped and cost no budget — the paper's f counts
// crashes actually inflicted.
func TestEventScheduleDeadTargetNotUsed(t *testing.T) {
	sched := &EventSchedule{Seed: 1, Events: []Event{{Round: 0, Node: 4}}}
	view := viewFor(8, 0, nil)
	view.Alive[4] = false
	if orders := sched.Crashes(view); len(orders) != 0 {
		t.Fatalf("dead target produced orders: %+v", orders)
	}
	if sched.Used() != 0 {
		t.Fatalf("Used() = %d after a skipped event, want 0", sched.Used())
	}
}

// TestEventScheduleNoCommitteeVisibleSkip: a committee-targeted event
// is skipped (not spent) when no committee member is visible — whether
// the committee is empty or the harness installed no Peek hook at all.
func TestEventScheduleNoCommitteeVisibleSkip(t *testing.T) {
	sched := &EventSchedule{Seed: 1, Events: []Event{{Round: 0, TargetCommittee: true}}}
	if orders := sched.Crashes(viewFor(8, 0, nil)); len(orders) != 0 {
		t.Fatalf("empty committee produced orders: %+v", orders)
	}
	noPeek := &EventSchedule{Seed: 1, Events: []Event{{Round: 0, TargetCommittee: true}}}
	view := viewFor(8, 0, map[int]bool{2: true})
	view.Peek = nil
	if orders := noPeek.Crashes(view); len(orders) != 0 {
		t.Fatalf("nil Peek produced orders: %+v", orders)
	}
	if sched.Used() != 0 || noPeek.Used() != 0 {
		t.Fatalf("Used() = %d/%d after skipped events, want 0/0", sched.Used(), noPeek.Used())
	}
}
