package service

// The undo journal is the service's O(touched) rollback mechanism. An
// epoch that edits k entries appends k before-image records; commit is
// truncation, abort replays the records in reverse. It replaces the
// full-snapshot checkpoint that copied the owner array, the names map,
// the live view, and the free-list slots every epoch — O(Capacity) work
// that dominated per-epoch cost at large namespaces (at Capacity 2^20
// the copies alone were ~12 MB/epoch). The snapshot survives only as
// the differential tests' oracle (differential_test.go): every aborted
// epoch must leave the service bit-identical to a pre-epoch checkpoint.
//
// Deliberately NOT journaled, and not part of that checkpoint: the
// uses[] grant counters and totalRecycled keep their increments across
// an abort (a name handed out by a run that was later rolled back has
// still been observed by clients, so its next grant is still a
// recycle), and the epoch counter stays advanced.

// opKind tags one journal record with the mutation it undoes.
type opKind uint8

const (
	// opFreePush: a Push overwrote the slot behind the tail; a holds the
	// slot's previous contents.
	opFreePush opKind = iota + 1
	// opFreePop: a Pop advanced the head; cursor rewind only.
	opFreePop
	// opOwner: owner[a] previously held b.
	opOwner
	// opNamesSet: names[a] existed and mapped to b.
	opNamesSet
	// opNamesDel: names[a] did not exist.
	opNamesDel
	// opLiveJoin: client a entered the live membership.
	opLiveJoin
	// opLiveLeave: client a left the live membership.
	opLiveLeave
)

// undoOp is one before-image record; a and b are kind-dependent (see the
// opKind constants).
type undoOp struct {
	kind opKind
	a, b int
}

// journal is an epoch's append-only before-image log. The backing array
// is reused across epochs, so steady-state epochs allocate nothing here.
type journal struct {
	ops []undoOp
}

func (j *journal) reset() { j.ops = j.ops[:0] }

func (j *journal) record(kind opKind, a, b int) {
	j.ops = append(j.ops, undoOp{kind: kind, a: a, b: b})
}

// rollbackJournal replays the epoch's journal in reverse, applying the
// inverse of each recorded mutation. Afterwards the service state is
// bit-exactly the pre-epoch state (the differential tests compare every
// field against the full-snapshot model, aborted epochs included).
func (s *Service) rollbackJournal() {
	for i := len(s.jnl.ops) - 1; i >= 0; i-- {
		op := s.jnl.ops[i]
		switch op.kind {
		case opFreePush:
			s.free.UndoPush(int32(op.a))
		case opFreePop:
			s.free.UndoPop()
		case opOwner:
			s.owner[op.a] = int32(op.b)
		case opNamesSet:
			s.names[op.a] = op.b
		case opNamesDel:
			delete(s.names, op.a)
		case opLiveJoin:
			// Inverse of the join's membership edit.
			s.liveLeave(op.a)
		case opLiveLeave:
			s.liveJoin(op.a)
		}
	}
	s.jnl.reset()
}
