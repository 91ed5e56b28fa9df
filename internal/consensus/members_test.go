package consensus

import (
	"sort"
	"testing"
)

func TestSortedMembersAlreadySortedIsZeroCopy(t *testing.T) {
	members := []int{1, 4, 9, 12}
	got := sortedMembers(members)
	if &got[0] != &members[0] {
		t.Fatal("sorted input should be returned without copying")
	}
}

func TestSortedMembersSortsCopy(t *testing.T) {
	members := []int{9, 1, 12, 4}
	got := sortedMembers(members)
	if !sort.IntsAreSorted(got) {
		t.Fatalf("not sorted: %v", got)
	}
	if members[0] != 9 {
		t.Fatal("input mutated")
	}
	if len(got) == len(members) && &got[0] == &members[0] {
		t.Fatal("unsorted input must be copied")
	}
}

// TestMemberOf: a tally records exactly the senders in the member view,
// each at its own position, and ignores links below, between and above
// the members.
func TestMemberOf(t *testing.T) {
	members := []int{2, 5, 7}
	var in []Msg
	for _, link := range []int{-1, 0, 2, 3, 5, 6, 7, 8, 100} {
		in = append(in, Msg{From: link, Val: Value{Lo: uint64(link)}})
	}
	var vs voteSet
	vs.init(members)
	vs.collect(in)
	for i, link := range members {
		if vs.stamp[i] != vs.epoch || vs.vals[i] != (Value{Lo: uint64(link)}) {
			t.Fatalf("member %d: recorded %v (stamped %v)", link, vs.vals[i], vs.stamp[i] == vs.epoch)
		}
	}
	if _, _, total := vs.countVotes(); total != len(members) {
		t.Fatalf("tally counted %d senders, want %d", total, len(members))
	}
	var empty voteSet
	empty.init(nil)
	empty.collect(in)
	if _, _, total := empty.countVotes(); total != 0 {
		t.Fatalf("empty view counted %d senders", total)
	}
}
