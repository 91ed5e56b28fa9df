package consensus

import (
	"math/rand"
	"testing"
)

// driver runs a set of machines (correct members) plus a Byzantine
// injector in synchronous lockstep: messages produced in round r are
// delivered in round r+1.
type driver struct {
	machines map[int]Machine
	inject   func(round int) []Msg
	pending  map[int][]Msg
}

func newDriver(machines map[int]Machine, inject func(round int) []Msg) *driver {
	if inject == nil {
		inject = func(int) []Msg { return nil }
	}
	return &driver{machines: machines, inject: inject, pending: make(map[int][]Msg)}
}

// run steps all machines until every one reports Done, or the round
// budget runs out (returns false).
func (d *driver) run(maxRounds int) bool {
	for round := 0; round < maxRounds; round++ {
		allDone := true
		for _, m := range d.machines {
			if !m.Done() {
				allDone = false
			}
		}
		if allDone {
			return true
		}
		next := make(map[int][]Msg)
		for self, m := range d.machines {
			if m.Done() {
				continue
			}
			for _, out := range m.Step(d.pending[self]) {
				next[out.To] = append(next[out.To], out)
			}
		}
		for _, msg := range d.inject(round) {
			next[msg.To] = append(next[msg.To], msg)
		}
		d.pending = next
	}
	for _, m := range d.machines {
		if !m.Done() {
			return false
		}
	}
	return true
}

// buildCommittee returns member links [0, m) with the last byz of them
// treated as Byzantine (no machine; messages injected separately).
func buildCommittee(m, byz int) (members []int, correct []int, byzantine []int) {
	for i := 0; i < m; i++ {
		members = append(members, i)
	}
	correct = members[:m-byz]
	byzantine = members[m-byz:]
	return members, correct, byzantine
}

func TestPhaseKingUnanimity(t *testing.T) {
	for _, m := range []int{1, 2, 4, 7, 10} {
		for _, input := range []bool{false, true} {
			members, correct, _ := buildCommittee(m, 0)
			machines := make(map[int]Machine, len(correct))
			pks := make(map[int]*PhaseKing, len(correct))
			for _, self := range correct {
				pk := NewPhaseKing(self, members, input)
				machines[self] = pk
				pks[self] = pk
			}
			if !newDriver(machines, nil).run(1000) {
				t.Fatalf("m=%d: did not terminate", m)
			}
			for self, pk := range pks {
				out, ok := pk.Output()
				if !ok || out != input {
					t.Fatalf("m=%d member %d: output %v, want %v", m, self, out, input)
				}
			}
		}
	}
}

// byzInjector sends equivocating random bits from every Byzantine member
// to every committee member each round, plus a lying king tiebreak.
func byzInjector(byzantine, members []int, rng *rand.Rand) func(int) []Msg {
	return func(round int) []Msg {
		var out []Msg
		for _, from := range byzantine {
			for _, to := range members {
				out = append(out, Msg{From: from, To: to, Val: Bit(rng.Intn(2) == 0)})
			}
		}
		return out
	}
}

func TestPhaseKingAgreementUnderByzantine(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 7 + rng.Intn(12)
		byz := rng.Intn(m/3 + 1)
		if 3*byz >= m {
			byz = (m - 1) / 3
		}
		members, correct, byzantine := buildCommittee(m, byz)
		machines := make(map[int]Machine)
		pks := make(map[int]*PhaseKing)
		unanimous := true
		first := rng.Intn(2) == 0
		for i, self := range correct {
			input := rng.Intn(2) == 0
			if i == 0 {
				input = first
			} else if input != first {
				unanimous = false
			}
			pk := NewPhaseKing(self, members, input)
			machines[self] = pk
			pks[self] = pk
		}
		if !newDriver(machines, byzInjector(byzantine, members, rng)).run(5000) {
			t.Fatalf("seed=%d: did not terminate", seed)
		}
		var ref bool
		for i, self := range correct {
			out, ok := pks[self].Output()
			if !ok {
				t.Fatalf("seed=%d: member %d no output", seed, self)
			}
			if i == 0 {
				ref = out
				continue
			}
			if out != ref {
				t.Fatalf("seed=%d (m=%d byz=%d): agreement violated", seed, m, byz)
			}
		}
		if unanimous && ref != first {
			t.Fatalf("seed=%d: validity violated (unanimous %v → %v)", seed, first, ref)
		}
	}
}

func TestValidatorUnanimity(t *testing.T) {
	members, correct, byzantine := buildCommittee(10, 3)
	in := Value{Hi: 42, Lo: 7}
	machines := make(map[int]Machine)
	vas := make(map[int]*Validator)
	for _, self := range correct {
		va := NewValidator(self, members, in)
		machines[self] = va
		vas[self] = va
	}
	rng := rand.New(rand.NewSource(1))
	if !newDriver(machines, byzInjector(byzantine, members, rng)).run(10) {
		t.Fatal("did not terminate")
	}
	for self, va := range vas {
		same, out, ok := va.Output()
		if !ok || !same || out != in {
			t.Fatalf("member %d: got same=%v out=%v, want same=true out=%v", self, same, out, in)
		}
	}
}

// TestValidatorWeakAgreement: whenever any correct member outputs same=1
// for value v, every correct member outputs v.
func TestValidatorWeakAgreement(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 7 + rng.Intn(10)
		byz := rng.Intn((m-1)/3 + 1)
		members, correct, byzantine := buildCommittee(m, byz)
		machines := make(map[int]Machine)
		vas := make(map[int]*Validator)
		inputs := make(map[int]Value)
		// Two camps of inputs with random sizes.
		a, b := Value{Hi: 1}, Value{Hi: 2}
		for _, self := range correct {
			in := a
			if rng.Intn(2) == 0 {
				in = b
			}
			inputs[self] = in
			va := NewValidator(self, members, in)
			machines[self] = va
			vas[self] = va
		}
		if !newDriver(machines, byzInjector(byzantine, members, rng)).run(10) {
			t.Fatalf("seed=%d: did not terminate", seed)
		}
		var graded []Value
		for _, va := range vas {
			if same, out, _ := va.Output(); same {
				graded = append(graded, out)
			}
		}
		if len(graded) == 0 {
			continue
		}
		want := graded[0]
		for self, va := range vas {
			_, out, _ := va.Output()
			if out != want {
				t.Fatalf("seed=%d: weak agreement violated: member %d out=%v want=%v", seed, self, out, want)
			}
		}
		// Strong validity: the graded value must be some correct input.
		seen := false
		for _, in := range inputs {
			if in == want {
				seen = true
			}
		}
		if !seen {
			t.Fatalf("seed=%d: graded value %v is no correct input", seed, want)
		}
	}
}

func TestExchangeCollectsOncePerSender(t *testing.T) {
	// A sparse committee: Byzantine member 8 sends a zero and then a
	// one, Byzantine member 10 stays silent, and non-members 9 (sorting
	// into 10's empty slot) and 99 send ones.
	members, correct := []int{0, 2, 4, 6, 8, 10}, []int{0, 2, 4, 6}
	machines := make(map[int]Machine)
	exs := make(map[int]*Exchange)
	wantZeros, wantOnes := 1, 0 // member 8's first vote
	for _, self := range correct {
		bit := self%4 == 2
		if bit {
			wantOnes++
		} else {
			wantZeros++
		}
		ex := NewExchange(self, members, Bit(bit))
		machines[self] = ex
		exs[self] = ex
	}
	inject := func(round int) []Msg {
		var out []Msg
		for _, to := range members {
			// Duplicate spam: only the first per sender may count.
			out = append(out, Msg{From: 8, To: to, Val: Value{}})
			out = append(out, Msg{From: 8, To: to, Val: Value{Lo: 200}})
			// Non-member spam must be ignored entirely.
			out = append(out, Msg{From: 9, To: to, Val: Value{Lo: 999}})
			out = append(out, Msg{From: 99, To: to, Val: Value{Lo: 999}})
		}
		return out
	}
	if z, o := exs[correct[0]].CountBits(); z != 0 || o != 0 {
		t.Fatalf("tally before Done = %d zeros, %d ones", z, o)
	}
	if !newDriver(machines, inject).run(5) {
		t.Fatal("did not terminate")
	}
	for self, ex := range exs {
		// A missing or wrong correct vote, a kept later duplicate or a
		// counted non-member each moves one of the two counts.
		if z, o := ex.CountBits(); z != wantZeros || o != wantOnes {
			t.Fatalf("member %d: %d zeros, %d ones; want %d, %d", self, z, o, wantZeros, wantOnes)
		}
	}
}

func TestValueOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		less bool
	}{
		{Value{0, 1}, Value{0, 2}, true},
		{Value{1, 0}, Value{0, 9}, false},
		{Value{1, 1}, Value{1, 1}, false},
		{Value{0, 0}, Value{1, 0}, true},
	}
	for _, c := range cases {
		if got := Less(c.a, c.b); got != c.less {
			t.Errorf("Less(%v,%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if !Bit(true).AsBit() || Bit(false).AsBit() {
		t.Error("Bit round-trip broken")
	}
}

func TestByzThreshold(t *testing.T) {
	// t = ceil(m/3) − 1: the largest count strictly below m/3.
	for m := 1; m < 100; m++ {
		tt := byzThreshold(m)
		if 3*tt >= m {
			t.Fatalf("m=%d: threshold %d not < m/3", m, tt)
		}
		if 3*(tt+1) < m {
			t.Fatalf("m=%d: threshold %d not maximal", m, tt)
		}
	}
}

func TestRoundsForMatchesMachine(t *testing.T) {
	for _, m := range []int{1, 2, 3, 8, 21} {
		members, _, _ := buildCommittee(m, 0)
		pk := NewPhaseKing(0, members, true)
		if got, want := pk.Rounds(), RoundsFor(m); got != want {
			t.Fatalf("m=%d: Rounds()=%d, RoundsFor=%d", m, got, want)
		}
		steps := 0
		var in []Msg
		for !pk.Done() {
			pk.Step(in)
			steps++
			if steps > 10000 {
				t.Fatal("runaway")
			}
		}
		if steps != pk.Rounds() {
			t.Fatalf("m=%d: took %d steps, Rounds()=%d", m, steps, pk.Rounds())
		}
	}
}

// TestPhaseKingUnderRushingSplit pits phase king against a *rushing*
// Byzantine member: each round it observes every honest message first,
// then sends the minority value to one half of the committee and the
// majority to the other — the strongest single-member vote split. With
// fewer than one third Byzantine, agreement and validity must survive.
func TestPhaseKingUnderRushingSplit(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 7 + rng.Intn(9)
		byz := (m - 1) / 3
		members, correct, byzantine := buildCommittee(m, byz)
		machines := make(map[int]Machine)
		pks := make(map[int]*PhaseKing)
		unanimous := true
		first := rng.Intn(2) == 0
		for i, self := range correct {
			input := rng.Intn(2) == 0
			if i == 0 {
				input = first
			} else if input != first {
				unanimous = false
			}
			pk := NewPhaseKing(self, members, input)
			machines[self] = pk
			pks[self] = pk
		}

		pending := make(map[int][]Msg)
		for round := 0; round < 5000; round++ {
			allDone := true
			next := make(map[int][]Msg)
			var thisRound []Msg
			for self, mch := range machines {
				if mch.Done() {
					continue
				}
				allDone = false
				for _, out := range mch.Step(pending[self]) {
					next[out.To] = append(next[out.To], out)
					thisRound = append(thisRound, out)
				}
			}
			if allDone {
				break
			}
			// The rushing members observe thisRound before voting.
			c0, c1 := 0, 0
			for _, msg := range thisRound {
				if msg.Val.AsBit() {
					c1++
				} else {
					c0++
				}
			}
			minority := Bit(c1 < c0)
			majority := Bit(c1 >= c0)
			for _, from := range byzantine {
				for idx, to := range members {
					val := majority
					if idx < len(members)/2 {
						val = minority
					}
					next[to] = append(next[to], Msg{From: from, To: to, Val: val})
				}
			}
			pending = next
		}

		var ref bool
		for i, self := range correct {
			out, ok := pks[self].Output()
			if !ok {
				t.Fatalf("seed=%d: member %d undecided", seed, self)
			}
			if i == 0 {
				ref = out
			} else if out != ref {
				t.Fatalf("seed=%d (m=%d byz=%d): rushing split broke agreement", seed, m, byz)
			}
		}
		if unanimous && ref != first {
			t.Fatalf("seed=%d: rushing split broke validity", seed)
		}
	}
}

// TestValidatorNoQuorumKeepsOwnInput: with correct inputs split evenly
// and no echoes reaching a strong quorum, every member falls back to its
// own input with same=0.
func TestValidatorNoQuorumKeepsOwnInput(t *testing.T) {
	members, correct, _ := buildCommittee(4, 0)
	machines := make(map[int]Machine)
	vas := make(map[int]*Validator)
	inputs := map[int]Value{0: {Hi: 1}, 1: {Hi: 1}, 2: {Hi: 2}, 3: {Hi: 2}}
	for _, self := range correct {
		va := NewValidator(self, members, inputs[self])
		machines[self] = va
		vas[self] = va
	}
	if !newDriver(machines, nil).run(10) {
		t.Fatal("did not terminate")
	}
	for self, va := range vas {
		same, out, _ := va.Output()
		if same {
			t.Fatalf("member %d graded same=1 on a 2-2 split", self)
		}
		if out != inputs[self] {
			t.Fatalf("member %d output %v, want own input %v", self, out, inputs[self])
		}
	}
}
