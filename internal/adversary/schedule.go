package adversary

import (
	"renaming/internal/sim"
)

// saltLabel is the DeriveSeed stream label for salted mid-send filters
// ("salt"): mixed with the event's own Salt, never with its position,
// so the filter is a stable property of the event itself.
const saltLabel uint64 = 0x73616c74

// Event is one planned crash in a replayable schedule. Unlike the
// adaptive strategies above, an event list is plain data: it can be
// serialized into a campaign artifact, shrunk to a minimal reproducer,
// and replayed bit-identically on any worker count.
type Event struct {
	// Round is the 0-based round the crash lands in.
	Round int `json:"round"`
	// Node is the link to crash. Ignored when TargetCommittee is set.
	Node int `json:"node"`
	// TargetCommittee redirects the event at execution time to the
	// lowest-indexed alive committee member (via the Peek hook) that no
	// earlier event of the same round already claimed — the schedulable
	// form of the committee-killer's adaptivity. The event is skipped
	// when no committee member is visible that round.
	TargetCommittee bool `json:"targetCommittee,omitempty"`
	// MidSend crashes the node mid-send: each of its round-r messages is
	// delivered independently with probability 1/2, drawn from the
	// schedule seed and the event's Salt (never from shared state or the
	// event's position), so dropping, reordering, or editing other
	// events does not reshuffle this event's filter — the property ddmin
	// shrinking relies on.
	MidSend bool `json:"midSend,omitempty"`
	// Salt is the event's stable filter identity, assigned once at
	// generation time and carried through every later shrink.
	Salt uint64 `json:"salt,omitempty"`
}

// EventSchedule executes a concrete crash schedule. It implements
// sim.CrashAdversary; an instance is good for one execution.
type EventSchedule struct {
	// Events is the schedule; events may appear in any order.
	Events []Event
	// Seed drives the mid-send delivery filters.
	Seed int64

	used int
}

var _ sim.CrashAdversary = (*EventSchedule)(nil)

// Crashes implements sim.CrashAdversary: it issues the orders whose
// events land in the current round, resolving committee targets against
// the live view. Events aimed at already-dead nodes are skipped and do
// not count as spent crashes.
func (a *EventSchedule) Crashes(view sim.View) []sim.CrashOrder {
	var orders []sim.CrashOrder
	claimed := make(map[int]bool)
	for _, ev := range a.Events {
		if ev.Round != view.Round {
			continue
		}
		node := ev.Node
		if ev.TargetCommittee {
			node = -1
			if view.Peek != nil {
				for cand, alive := range view.Alive {
					if !alive || claimed[cand] {
						continue
					}
					info, ok := view.Peek(cand).(CommitteeInfo)
					if ok && info.IsCommitteeMember() {
						node = cand
						break
					}
				}
			}
			if node < 0 {
				continue
			}
		}
		if node < 0 || node >= len(view.Alive) || !view.Alive[node] || claimed[node] {
			continue
		}
		claimed[node] = true
		a.used++
		order := sim.CrashOrder{Node: node}
		if ev.MidSend {
			order.Filter = randomHalfFilter(sim.NewRand(a.Seed, saltLabel^ev.Salt))
		}
		orders = append(orders, order)
	}
	return orders
}

// Used returns the number of crashes actually issued (the paper's f):
// events that found their target dead, or found no committee member,
// cost nothing.
func (a *EventSchedule) Used() int { return a.used }
