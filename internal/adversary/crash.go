// Package adversary implements the paper's failure models: the adaptive
// crash adversary "Eve" of Section 2 (strategies that observe execution
// state each round and may crash nodes even mid-send) and helpers for the
// static Byzantine adversary "Carlo" of Section 3 (choosing the corrupted
// set before activation; Byzantine node *behaviour* lives next to the
// protocol it attacks, in internal/core).
package adversary

import (
	"math/rand"

	"renaming/internal/sim"
)

// CommitteeInfo is the adaptive adversary's window into protocol state.
// Protocol nodes expose it through the network's Peek hook; any node
// state type that implements it can be targeted by the committee killer.
type CommitteeInfo interface {
	// IsCommitteeMember reports whether the node currently has
	// elected = true.
	IsCommitteeMember() bool
}

// RandomCrashes crashes up to Budget alive nodes, each alive node failing
// independently with probability Prob per round. With MidSendProb > 0 a
// crash happens mid-send, delivering each outgoing message independently
// with probability 1/2, exercising the paper's partial-send semantics.
type RandomCrashes struct {
	Budget      int
	Prob        float64
	MidSendProb float64
	Rand        *rand.Rand

	used int
}

var _ sim.CrashAdversary = (*RandomCrashes)(nil)

// Crashes implements sim.CrashAdversary.
func (a *RandomCrashes) Crashes(view sim.View) []sim.CrashOrder {
	var orders []sim.CrashOrder
	for node, alive := range view.Alive {
		if !alive || a.used >= a.Budget {
			continue
		}
		if a.Rand.Float64() >= a.Prob {
			continue
		}
		a.used++
		order := sim.CrashOrder{Node: node}
		if a.Rand.Float64() < a.MidSendProb {
			order.Filter = randomHalfFilter(a.Rand)
		}
		orders = append(orders, order)
	}
	return orders
}

// Used returns the number of crashes issued so far (the paper's f).
func (a *RandomCrashes) Used() int { return a.used }

// BurstCrash crashes the listed nodes at the given round, all before
// sending. It models a correlated failure (rack loss, partition death).
type BurstCrash struct {
	Round int
	Nodes []int
}

var _ sim.CrashAdversary = (*BurstCrash)(nil)

// Crashes implements sim.CrashAdversary.
func (a *BurstCrash) Crashes(view sim.View) []sim.CrashOrder {
	if view.Round != a.Round {
		return nil
	}
	orders := make([]sim.CrashOrder, 0, len(a.Nodes))
	for _, node := range a.Nodes {
		orders = append(orders, sim.CrashOrder{Node: node})
	}
	return orders
}

// CommitteeKiller is the paper's worst-case adaptive strategy: every
// round it inspects node state through the Peek hook and crashes every
// current committee member, up to its budget. This forces the protocol
// through its committee re-election path and makes the message
// complexity scale with f. With MidSend set, half of a victim's final
// messages still leak out, maximizing response inconsistency.
type CommitteeKiller struct {
	Budget  int
	MidSend bool
	Rand    *rand.Rand

	used int
}

var _ sim.CrashAdversary = (*CommitteeKiller)(nil)

// Crashes implements sim.CrashAdversary.
func (a *CommitteeKiller) Crashes(view sim.View) []sim.CrashOrder {
	if view.Peek == nil {
		return nil
	}
	var orders []sim.CrashOrder
	for node, alive := range view.Alive {
		if !alive || a.used >= a.Budget {
			continue
		}
		info, ok := view.Peek(node).(CommitteeInfo)
		if !ok || !info.IsCommitteeMember() {
			continue
		}
		a.used++
		order := sim.CrashOrder{Node: node}
		if a.MidSend && a.Rand != nil {
			order.Filter = randomHalfFilter(a.Rand)
		}
		orders = append(orders, order)
	}
	return orders
}

// Used returns the number of crashes issued so far (the paper's f).
func (a *CommitteeKiller) Used() int { return a.used }

// Scheduled crashes exactly per an explicit (round → orders) table,
// giving tests full control over failure timing.
type Scheduled struct {
	Orders map[int][]sim.CrashOrder
}

var _ sim.CrashAdversary = (*Scheduled)(nil)

// Crashes implements sim.CrashAdversary.
func (a *Scheduled) Crashes(view sim.View) []sim.CrashOrder {
	return a.Orders[view.Round]
}

// randomHalfFilter returns a SendFilter delivering each message with
// probability 1/2, decided once per recipient for determinism: the first
// query for a recipient draws its verdict, later ones reuse it. Verdicts
// live in one slice indexed by recipient link (0 undecided, 1 drop, 2
// deliver), grown on demand.
func randomHalfFilter(rng *rand.Rand) sim.SendFilter {
	var verdict []uint8
	return func(to int) bool {
		if to >= len(verdict) {
			verdict = append(verdict, make([]uint8, to+1-len(verdict))...)
		}
		if verdict[to] == 0 {
			verdict[to] = 1
			if rng.Intn(2) == 0 {
				verdict[to] = 2
			}
		}
		return verdict[to] == 2
	}
}
