package service

import (
	"math/rand"
	"testing"
)

// FreeListCheckpoint is a full snapshot of a FreeList: slot contents
// (an epoch overwrites slots behind the tail as leavers release names),
// cursors and phase bits. The live service never takes one, because an
// aborted epoch writes nothing; the differential suite
// (differential_test.go) uses it to check exactly that.
type FreeListCheckpoint struct {
	slots     []int32
	head      int
	tail      int
	headPhase uint8
	tailPhase uint8
}

// Checkpoint snapshots the list.
func (fl *FreeList) Checkpoint() FreeListCheckpoint {
	return FreeListCheckpoint{
		slots:     append([]int32(nil), fl.slots...),
		head:      fl.head,
		tail:      fl.tail,
		headPhase: fl.headPhase,
		tailPhase: fl.tailPhase,
	}
}

// drain pops every free name, returning them in pop order (mutates fl).
func drain(fl *FreeList) []int {
	var out []int
	for {
		name, ok := fl.Pop()
		if !ok {
			return out
		}
		out = append(out, name)
	}
}

func TestFreeListNewPopsAscending(t *testing.T) {
	fl, err := NewFreeList(8)
	if err != nil {
		t.Fatal(err)
	}
	if !fl.Full() || fl.Empty() || fl.Len() != 8 {
		t.Fatalf("new list: Full=%v Empty=%v Len=%d, want full", fl.Full(), fl.Empty(), fl.Len())
	}
	for want := 1; want <= 8; want++ {
		name, ok := fl.Pop()
		if !ok || name != want {
			t.Fatalf("pop %d: got (%d, %v)", want, name, ok)
		}
	}
	if !fl.Empty() || fl.Len() != 0 {
		t.Fatalf("drained list: Empty=%v Len=%d", fl.Empty(), fl.Len())
	}
	if _, ok := fl.Pop(); ok {
		t.Fatal("pop from empty list succeeded")
	}
}

func TestFreeListRejectsBadCapacityAndNames(t *testing.T) {
	if _, err := NewFreeList(0); err == nil {
		t.Error("NewFreeList(0) succeeded")
	}
	fl, err := NewFreeList(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Push(1); err == nil {
		t.Error("push into a full list succeeded")
	}
	fl.Pop()
	if err := fl.Push(0); err == nil {
		t.Error("push of name 0 succeeded")
	}
	if err := fl.Push(5); err == nil {
		t.Error("push of out-of-range name succeeded")
	}
}

// TestFreeListPhaseBitsAcrossWraps drives the ring through many full
// wrap-arounds and checks the phase bits keep full and empty
// distinguishable the whole way (head == tail in both states).
func TestFreeListPhaseBitsAcrossWraps(t *testing.T) {
	const capacity = 5
	fl, err := NewFreeList(capacity)
	if err != nil {
		t.Fatal(err)
	}
	for wrap := 0; wrap < 7; wrap++ {
		if !fl.Full() {
			t.Fatalf("wrap %d: list not full before drain (len %d)", wrap, fl.Len())
		}
		names := drain(fl)
		if len(names) != capacity {
			t.Fatalf("wrap %d: drained %d names, want %d", wrap, len(names), capacity)
		}
		if !fl.Empty() || fl.Full() {
			t.Fatalf("wrap %d: after drain Empty=%v Full=%v", wrap, fl.Empty(), fl.Full())
		}
		for i, name := range names {
			if err := fl.Push(name); err != nil {
				t.Fatalf("wrap %d: push %d: %v", wrap, name, err)
			}
			if fl.Len() != i+1 {
				t.Fatalf("wrap %d: Len=%d after %d pushes", wrap, fl.Len(), i+1)
			}
		}
		if fl.Empty() || !fl.Full() {
			t.Fatalf("wrap %d: after refill Empty=%v Full=%v", wrap, fl.Empty(), fl.Full())
		}
	}
}

// TestFreeListNoDoubleHandOut runs a seeded random push/pop workload
// against a set model: a popped name is live until pushed back, and the
// list must never hand out a name that is currently live.
func TestFreeListNoDoubleHandOut(t *testing.T) {
	const capacity = 17
	fl, err := NewFreeList(capacity)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	live := make(map[int]bool)
	var held []int
	for op := 0; op < 20000; op++ {
		if rng.Intn(2) == 0 {
			name, ok := fl.Pop()
			if !ok {
				if len(live) != capacity {
					t.Fatalf("op %d: pop failed with only %d/%d names live", op, len(live), capacity)
				}
				continue
			}
			if live[name] {
				t.Fatalf("op %d: name %d handed out while live", op, name)
			}
			live[name] = true
			held = append(held, name)
		} else if len(held) > 0 {
			i := rng.Intn(len(held))
			name := held[i]
			held = append(held[:i], held[i+1:]...)
			if err := fl.Push(name); err != nil {
				t.Fatalf("op %d: push %d: %v", op, name, err)
			}
			delete(live, name)
		}
		if fl.Len() != capacity-len(live) {
			t.Fatalf("op %d: Len=%d, model says %d free", op, fl.Len(), capacity-len(live))
		}
	}
}

// FuzzFreeList drives the ring with a fuzzed op sequence against a
// plain slice FIFO model: every observable (pop results, Len, Empty,
// Full) must match the model at every step.
func FuzzFreeList(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 0, 0, 1, 1, 0})
	f.Add(uint8(1), []byte{0, 0, 1, 0})
	f.Add(uint8(13), []byte{1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0})
	f.Fuzz(func(t *testing.T, capByte uint8, ops []byte) {
		capacity := int(capByte)%32 + 1
		fl, err := NewFreeList(capacity)
		if err != nil {
			t.Fatal(err)
		}
		var model []int // free names in FIFO order
		for i := 1; i <= capacity; i++ {
			model = append(model, i)
		}
		var held []int
		for op, b := range ops {
			if b%2 == 0 {
				name, ok := fl.Pop()
				if ok != (len(model) > 0) {
					t.Fatalf("op %d: pop ok=%v with %d free in model", op, ok, len(model))
				}
				if ok {
					if name != model[0] {
						t.Fatalf("op %d: popped %d, model head %d", op, name, model[0])
					}
					model = model[1:]
					held = append(held, name)
				}
			} else if len(held) > 0 {
				name := held[int(b/2)%len(held)]
				for i, h := range held {
					if h == name {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
				if err := fl.Push(name); err != nil {
					t.Fatalf("op %d: push %d: %v", op, name, err)
				}
				model = append(model, name)
			}
			if fl.Len() != len(model) {
				t.Fatalf("op %d: Len=%d, model %d", op, fl.Len(), len(model))
			}
			if fl.Empty() != (len(model) == 0) || fl.Full() != (len(model) == capacity) {
				t.Fatalf("op %d: Empty=%v Full=%v with %d/%d free", op, fl.Empty(), fl.Full(), len(model), capacity)
			}
		}
	})
}
