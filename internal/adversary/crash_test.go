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

// mapHalfFilter is the two-map filter that randomHalfFilter's dense
// verdict slice replaced, kept as its reference.
func mapHalfFilter(rng *rand.Rand) sim.SendFilter {
	decided := make(map[int]bool)
	choice := make(map[int]bool)
	return func(to int) bool {
		if !decided[to] {
			decided[to] = true
			choice[to] = rng.Intn(2) == 0
		}
		return choice[to]
	}
}

// TestRandomHalfFilterMatchesMaps drives the dense filter and the map
// reference from equally seeded rngs and compares every verdict, then
// each rng's next draw, which shows that both drew exactly once per
// recipient and in the same order: every golden that runs a mid-send
// crash depends on that shared stream.
func TestRandomHalfFilterMatchesMaps(t *testing.T) {
	const n = 300
	var repeated, descending, random []int
	for pass := 0; pass < 3; pass++ {
		for to := 0; to < n; to++ {
			repeated = append(repeated, to)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for to := n - 1; to >= 0; to-- {
			descending = append(descending, to)
		}
	}
	pick := rand.New(rand.NewSource(99))
	for i := 0; i < 3*n; i++ {
		random = append(random, pick.Intn(n))
	}
	orders := []struct {
		name  string
		order []int
	}{{"repeated", repeated}, {"descending", descending}, {"random", random}}
	for _, o := range orders {
		for seed := int64(1); seed <= 3; seed++ {
			denseRng, mapRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			dense, ref := randomHalfFilter(denseRng), mapHalfFilter(mapRng)
			for i, to := range o.order {
				if got, want := dense(to), ref(to); got != want {
					t.Fatalf("%s seed %d: query %d (recipient %d) delivers %v, the map filter %v", o.name, seed, i, to, got, want)
				}
			}
			if got, want := denseRng.Int63(), mapRng.Int63(); got != want {
				t.Fatalf("%s seed %d: the rngs' next draws differ (%d vs %d): the filters drew different counts", o.name, seed, got, want)
			}
		}
	}
}
