package sim

import (
	"fmt"
	"sync"
)

// Sets is the engine's registry of interned recipient sets — the targets
// of ToSet shared multicasts. A set is a strictly ascending list of link
// indices; interning it once lets every sender that addresses the same
// recipients store a single outbox entry (billed as |set| wire messages)
// which the engine delivers as one shared aggregate segment instead of
// |set| copies per sender. Set 0 is always the universal set [0, n), so
// a ToAll broadcast is the shared multicast to it and travels the same
// path as every other shared target.
//
// Interning is keyed: InternPhase stores at most one canonical set per
// key (first caller wins), and later callers whose membership differs —
// typically because a mid-send crash filter dropped some of the
// announcements they derived the set from — are told to fall back to an
// explicit Multicast. That keeps the registry O(#keys), bounds the
// per-round number of aggregate segments, and makes "per-recipient
// deltas only where the filter actually diverged" the natural outcome.
//
// The registry is attached to nodes implementing SetUser at setup and
// cleared per run (pooled engines re-clear it per lease). InternPhase is
// safe for concurrent use — nodes intern during the parallel step phase;
// every other engine access happens after the phase barrier.
type Sets struct {
	mu      sync.RWMutex
	n       int
	lists   [][]int32
	byKey   map[uint64]int32
	scratch any
}

// SetUser is implemented by nodes that emit ToSet shared multicasts. The
// engine calls UseSets during setup with its registry. Nodes must fall
// back to an explicit Multicast when InternPhase declines, and when they
// run without a registry: a node that reaches the engine wrapped in a
// type that hides SetUser never receives one.
type SetUser interface {
	UseSets(s *Sets)
}

// reset clears the registry for a run over n nodes, keeping capacity,
// and pre-interns the universal set [0, n) as set 0 — the target of
// ToAll == ToSet(0) — reusing the previous lease's lists[0] backing. The
// scratch slot is dropped so a pooled engine's next lease cannot see a
// stale aggregate keyed on recycled slab memory.
func (s *Sets) reset(n int) {
	s.n = n
	var all []int32
	if cap(s.lists) > 0 {
		all = s.lists[:1][0]
	}
	all = growSpan(all, n)
	for i := range all {
		all[i] = int32(i)
	}
	s.lists = append(s.lists[:0], all)
	if s.byKey == nil {
		s.byKey = make(map[uint64]int32)
	} else {
		clear(s.byKey)
	}
	s.scratch = nil
}

// Scratch returns the registry's run-wide shared scratch slot, creating
// it with mk on first use. SetUser nodes use it to share derived state
// across the whole node population — e.g. the crash path's convergecast
// aggregate, computed once per committee round by whichever member
// steps first and consumed by the rest (see core.committeeAggregate).
// Safe for concurrent use; cleared at run reset.
func (s *Sets) Scratch(mk func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scratch == nil {
		s.scratch = mk()
	}
	return s.scratch
}

// InternPhase interns members under key and returns the set id to embed
// via ToSet. The first caller per key stores the canonical membership (a
// copy — the argument is not retained); every later caller is compared
// against it and receives ok == false on any difference, in which case
// it must send an explicit Multicast instead. Members must be strictly
// ascending link indices; an empty slice is never interned.
func (s *Sets) InternPhase(key uint64, members []int) (int, bool) {
	if len(members) == 0 {
		return 0, false
	}
	s.mu.RLock()
	if id, ok := s.byKey[key]; ok {
		canon := s.lists[id]
		s.mu.RUnlock()
		return int(id), membersEqual(canon, members)
	}
	s.mu.RUnlock()
	s.mu.Lock()
	if id, ok := s.byKey[key]; ok {
		canon := s.lists[id]
		s.mu.Unlock()
		return int(id), membersEqual(canon, members)
	}
	prev := -1
	list := make([]int32, len(members))
	for i, m := range members {
		if m < 0 || m >= s.n {
			s.mu.Unlock()
			panic(fmt.Sprintf("sim: ToSet member %d outside [0,%d)", m, s.n))
		}
		if m <= prev {
			s.mu.Unlock()
			panic(fmt.Sprintf("sim: ToSet members must be strictly ascending (got %d after %d)", m, prev))
		}
		prev = m
		list[i] = int32(m)
	}
	id := int32(len(s.lists))
	s.lists = append(s.lists, list)
	s.byKey[key] = id
	s.mu.Unlock()
	return int(id), true
}

// membersOf resolves a shared recipient (To < 0: ToAll or ToSet(id)) to
// its canonical membership, ascending, panicking on an id that names no
// interned set. The engine calls it only between phase barriers, never
// concurrently with InternPhase.
func (s *Sets) membersOf(to int) []int32 {
	id := toSetID(to)
	if id < 0 || id >= len(s.lists) {
		panic(fmt.Sprintf("sim: message addressed to unknown set %d", id))
	}
	return s.lists[id]
}

func membersEqual(canon []int32, members []int) bool {
	if len(canon) != len(members) {
		return false
	}
	for i, m := range members {
		if int(canon[i]) != m {
			return false
		}
	}
	return true
}

// containsMember reports whether the ascending list holds link to.
func containsMember(list []int32, to int) bool {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(list[mid]) < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(list) && int(list[lo]) == to
}

// lowerBound returns the first index of the ascending list with value
// >= to — the start of a worker's member range.
func lowerBound(list []int32, to int) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(list[mid]) < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
