package service

import "fmt"

// FreeList is a fixed-capacity FIFO ring buffer of free names, the
// register-renaming free-list structure: head and tail indices each
// carry a phase bit that flips on wrap-around, so full (head == tail,
// phases differ) and empty (head == tail, phases equal) are
// distinguishable without a separate counter. Names pop from the head
// in release order (oldest released first) and released names push at
// the tail, which is what spreads recycling evenly over the namespace
// instead of hammering the lowest names.
type FreeList struct {
	slots     []int32
	head      int
	tail      int
	headPhase uint8
	tailPhase uint8
}

// NewFreeList returns a full free list holding names 1..capacity in
// ascending order (name 1 pops first).
func NewFreeList(capacity int) (*FreeList, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("service: free list capacity must be positive, got %d", capacity)
	}
	fl := &FreeList{slots: make([]int32, capacity), tailPhase: 1}
	for i := range fl.slots {
		fl.slots[i] = int32(i + 1)
	}
	return fl, nil
}

// Capacity returns the fixed slot count.
func (fl *FreeList) Capacity() int { return len(fl.slots) }

// Empty reports whether no names are free.
func (fl *FreeList) Empty() bool { return fl.head == fl.tail && fl.headPhase == fl.tailPhase }

// Full reports whether every name is free.
func (fl *FreeList) Full() bool { return fl.head == fl.tail && fl.headPhase != fl.tailPhase }

// Len returns the number of free names.
func (fl *FreeList) Len() int {
	switch {
	case fl.Full():
		return len(fl.slots)
	case fl.Empty():
		return 0
	case fl.head < fl.tail:
		return fl.tail - fl.head
	default:
		return len(fl.slots) - (fl.head - fl.tail)
	}
}

// Pop removes and returns the oldest free name; ok is false when the
// list is empty.
func (fl *FreeList) Pop() (name int, ok bool) {
	if fl.Empty() {
		return 0, false
	}
	name = int(fl.slots[fl.head])
	fl.head++
	if fl.head == len(fl.slots) {
		fl.head = 0
		fl.headPhase ^= 1
	}
	return name, true
}

// Push appends a released name at the tail. Pushing into a full list is
// a service-level accounting bug (more names released than exist) and
// returns an error instead of silently overwriting live entries.
func (fl *FreeList) Push(name int) error {
	if fl.Full() {
		return fmt.Errorf("service: free list full, cannot release name %d", name)
	}
	if name < 1 || name > len(fl.slots) {
		return fmt.Errorf("service: released name %d outside [1, %d]", name, len(fl.slots))
	}
	fl.slots[fl.tail] = int32(name)
	fl.tail++
	if fl.tail == len(fl.slots) {
		fl.tail = 0
		fl.tailPhase ^= 1
	}
	return nil
}
