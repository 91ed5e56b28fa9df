package adversary

import (
	"math/rand"
	"testing"

	"renaming/internal/sim"
)

type fakeInfo struct{ committee bool }

func (f fakeInfo) IsCommitteeMember() bool { return f.committee }

func viewFor(n, round int, committee map[int]bool) sim.View {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return sim.View{
		Round: round,
		Alive: alive,
		Peek:  func(node int) any { return fakeInfo{committee: committee[node]} },
	}
}

func TestRandomCrashesBudget(t *testing.T) {
	adv := &RandomCrashes{Budget: 5, Prob: 1, Rand: rand.New(rand.NewSource(1))}
	total := 0
	for round := 0; round < 10; round++ {
		total += len(adv.Crashes(viewFor(20, round, nil)))
	}
	if total != 5 || adv.Used() != 5 {
		t.Fatalf("crashed %d (used %d), want budget 5", total, adv.Used())
	}
}

func TestRandomCrashesMidSendFilters(t *testing.T) {
	adv := &RandomCrashes{Budget: 50, Prob: 1, MidSendProb: 1, Rand: rand.New(rand.NewSource(2))}
	orders := adv.Crashes(viewFor(50, 0, nil))
	withFilter := 0
	for _, o := range orders {
		if o.Filter != nil {
			withFilter++
			// A filter must be deterministic per recipient.
			if o.Filter(3) != o.Filter(3) {
				t.Fatal("filter not deterministic")
			}
		}
	}
	if withFilter != len(orders) {
		t.Fatalf("only %d/%d orders have filters with MidSendProb=1", withFilter, len(orders))
	}
}

func TestBurstCrash(t *testing.T) {
	adv := &BurstCrash{Round: 3, Nodes: []int{1, 2, 5}}
	if got := adv.Crashes(viewFor(10, 2, nil)); got != nil {
		t.Fatalf("fired early: %v", got)
	}
	got := adv.Crashes(viewFor(10, 3, nil))
	if len(got) != 3 || got[0].Node != 1 || got[2].Node != 5 {
		t.Fatalf("burst = %v", got)
	}
}

func TestCommitteeKillerTargetsCommittee(t *testing.T) {
	committee := map[int]bool{2: true, 7: true, 9: true}
	adv := &CommitteeKiller{Budget: 2, Rand: rand.New(rand.NewSource(3))}
	orders := adv.Crashes(viewFor(12, 0, committee))
	if len(orders) != 2 {
		t.Fatalf("killed %d, want budget 2", len(orders))
	}
	for _, o := range orders {
		if !committee[o.Node] {
			t.Fatalf("killed non-member %d", o.Node)
		}
	}
	if adv.Used() != 2 {
		t.Fatalf("used = %d", adv.Used())
	}
	// Budget exhausted: nothing more.
	if got := adv.Crashes(viewFor(12, 1, committee)); len(got) != 0 {
		t.Fatalf("killed past the budget: %v", got)
	}
}

func TestCommitteeKillerNeedsPeek(t *testing.T) {
	adv := &CommitteeKiller{Budget: 10, Rand: rand.New(rand.NewSource(5))}
	view := viewFor(5, 0, map[int]bool{0: true})
	view.Peek = nil
	if got := adv.Crashes(view); got != nil {
		t.Fatal("killed without visibility")
	}
}

func TestScheduled(t *testing.T) {
	adv := &Scheduled{Orders: map[int][]sim.CrashOrder{2: {{Node: 4}}}}
	if got := adv.Crashes(viewFor(8, 1, nil)); got != nil {
		t.Fatal("fired early")
	}
	if got := adv.Crashes(viewFor(8, 2, nil)); len(got) != 1 || got[0].Node != 4 {
		t.Fatalf("got %v", got)
	}
}
