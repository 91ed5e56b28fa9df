package consensus

import "sort"

// sortedMembers returns members in ascending order. When the input is
// already sorted — the common case: committees are built sorted and the
// same backing slice is shared across all n machines — it is returned
// as-is with no copy. Callers must treat the result as immutable.
func sortedMembers(members []int) []int {
	if sort.IntsAreSorted(members) {
		return members
	}
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	return sorted
}

// voteSet collects at most one vote per committee member without a map:
// a vote lands at the sender's position in the sorted member list, and an
// epoch stamp marks which entries belong to the current collection, so
// clearing between phases is O(1) and the steady state allocates nothing.
type voteSet struct {
	members []int // sorted committee view (shared, not owned)
	vals    []Value
	stamp   []int
	epoch   int
}

func (vs *voteSet) init(members []int) {
	vs.members = members
	vs.vals = make([]Value, len(members))
	vs.stamp = make([]int, len(members))
}

// collect starts a fresh tally from the round's inbox, keeping the first
// message per member and ignoring senders outside the view (a Byzantine
// non-member cannot vote).
func (vs *voteSet) collect(in []Msg) {
	vs.epoch++
	for _, m := range in {
		i := sort.SearchInts(vs.members, m.From)
		if i == len(vs.members) || vs.members[i] != m.From {
			continue
		}
		if vs.stamp[i] == vs.epoch {
			continue // first message per sender counts
		}
		vs.stamp[i] = vs.epoch
		vs.vals[i] = m.Val
	}
}

// countBits tallies the binary votes (after AsBit normalization).
func (vs *voteSet) countBits() (zeros, ones int) {
	for i := range vs.members {
		if vs.stamp[i] != vs.epoch {
			continue
		}
		if vs.vals[i].AsBit() {
			ones++
		} else {
			zeros++
		}
	}
	return zeros, ones
}

// countVotes returns the most frequent vote (ties broken by Less), its
// multiplicity, and the total number of votes, via O(m²) pairwise
// comparison instead of a hash map, which wins for committee-sized m.
func (vs *voteSet) countVotes() (best Value, bestCount, total int) {
	first := true
	for i := range vs.members {
		if vs.stamp[i] != vs.epoch {
			continue
		}
		total++
		v := vs.vals[i]
		dup := false
		for j := 0; j < i; j++ {
			if vs.stamp[j] == vs.epoch && vs.vals[j] == v {
				dup = true // already counted at its first occurrence
				break
			}
		}
		if dup {
			continue
		}
		c := 1
		for j := i + 1; j < len(vs.members); j++ {
			if vs.stamp[j] == vs.epoch && vs.vals[j] == v {
				c++
			}
		}
		if first || c > bestCount || (c == bestCount && Less(v, best)) {
			best, bestCount = v, c
			first = false
		}
	}
	return best, bestCount, total
}
