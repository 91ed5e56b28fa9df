package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"renaming/internal/adversary"
	"renaming/internal/interval"
	"renaming/internal/sim"
)

// buildCrashRun wires n crash nodes into a network with the given
// adversary and extra engine options and returns both. With plain set,
// each node reaches the engine as a bare sim.Node, which hides its
// SetUser side: it gets no interned-set registry and sends every status
// multicast and response batch as explicit per-recipient messages.
func buildCrashRun(t *testing.T, cfg CrashConfig, adv sim.CrashAdversary, plain bool, extra ...sim.Option) (*sim.Network, []*CrashNode) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	n := len(cfg.IDs)
	nodes := make([]*CrashNode, n)
	simNodes := make([]sim.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = NewCrashNode(cfg, i)
		simNodes[i] = nodes[i]
		if plain {
			simNodes[i] = struct{ sim.Node }{nodes[i]}
		}
	}
	opts := []sim.Option{sim.WithPeek(func(i int) any { return nodes[i].Peek() })}
	if adv != nil {
		opts = append(opts, sim.WithCrashAdversary(adv))
	}
	return sim.NewNetwork(simNodes, append(opts, extra...)...), nodes
}

// runCrash executes a full crash-renaming execution and fails the test on
// round-limit violations.
func runCrash(t *testing.T, cfg CrashConfig, adv sim.CrashAdversary) (*sim.Network, []*CrashNode) {
	t.Helper()
	nw, nodes := buildCrashRun(t, cfg, adv, false)
	if err := nw.Run(cfg.TotalRounds() + 1); err != nil {
		t.Fatalf("run: %v", err)
	}
	return nw, nodes
}

// checkUnique asserts that every surviving node decided a distinct new
// identity in [1, n] — the strong renaming guarantee.
func checkUnique(t *testing.T, nw *sim.Network, nodes []*CrashNode) {
	t.Helper()
	n := len(nodes)
	seen := make(map[int]int)
	for i, node := range nodes {
		if !nw.Alive(i) {
			continue
		}
		newID, ok := node.Output()
		if !ok {
			iv, d, p := node.State()
			t.Fatalf("alive node %d (id %d) undecided: I=%v d=%d p=%d", i, node.id, iv, d, p)
		}
		if newID < 1 || newID > n {
			t.Fatalf("node %d got new id %d outside [1,%d]", i, newID, n)
		}
		if prev, dup := seen[newID]; dup {
			t.Fatalf("nodes %d and %d both got new id %d", prev, i, newID)
		}
		seen[newID] = i
	}
}

func seqConfig(n, bigN int, seed int64) CrashConfig {
	ids := make([]int, n)
	gap := bigN / n
	for i := range ids {
		ids[i] = i*gap + 1
	}
	return CrashConfig{N: bigN, IDs: ids, Seed: seed}
}

// TestCrashSharedSendsMatchExplicit is the representation property test
// of the crash path's committee traffic: a full adversarial execution
// must be observationally identical whether each node's status multicast
// and each committee member's response batch travel as shared ToSet
// entries (delivered through the engine's aggregate layer and the shared
// committee plan) or as the explicit per-recipient sends a node without
// an interned-set registry falls back to. The committee killer with
// mid-send crashes drives the divergence machinery: partial sends force
// ToSet expansion through the crash filter, senders with divergent
// committee views or response links decline the intern, and merged
// per-recipient views take the committee's pooled private-plan path.
// Compared: the full sim.Metrics (per-node arrays and PerKindBits
// included), the round-digest stream, and every node's liveness and
// output. Billing is decoupled from packing; this test pins that the
// packing is unobservable.
func TestCrashSharedSendsMatchExplicit(t *testing.T) {
	const n = 256
	for _, seed := range []int64{11, 77} {
		for _, workers := range []int{1, 8} {
			var prints [2]string
			for mode, plain := range []bool{false, true} {
				cfg := seqConfig(n, 16*n, seed)
				cfg.CommitteeScale = 0.02
				adv := &adversary.CommitteeKiller{Budget: 64, MidSend: true, Rand: rand.New(rand.NewSource(seed))}
				var fp strings.Builder
				nw, nodes := buildCrashRun(t, cfg, adv, plain,
					sim.WithEngineWorkers(workers),
					sim.WithRoundDigest(func(d sim.RoundDigest) { fmt.Fprintf(&fp, "%+v\n", d) }))
				if err := nw.Run(cfg.TotalRounds() + 1); err != nil {
					t.Fatalf("seed=%d workers=%d plain=%v: %v", seed, workers, plain, err)
				}
				checkUnique(t, nw, nodes)
				if nw.Crashes() == 0 {
					t.Fatalf("seed=%d workers=%d plain=%v: the killer crashed nobody", seed, workers, plain)
				}
				fmt.Fprintf(&fp, "%+v\n", *nw.Metrics())
				for i, node := range nodes {
					if (node.sets == nil) != plain {
						t.Fatalf("seed=%d workers=%d plain=%v: node %d has registry %v", seed, workers, plain, i, node.sets != nil)
					}
					id, ok := node.Output()
					fmt.Fprintf(&fp, "%d:%v/%d/%v;", i, nw.Alive(i), id, ok)
				}
				nw.Close()
				prints[mode] = fp.String()
			}
			if prints[0] != prints[1] {
				t.Errorf("seed=%d workers=%d: shared and explicit sends are observably different", seed, workers)
			}
		}
	}
}

// TestBoundNodesBuildNoCommitteeView pins that a node bound to the
// shared Notify view reads the aggregate's summary instead of rebuilding
// its own K-entry committee view: after a failure-free run every node's
// Notify inbox was the bound view in every phase, so no node's own list
// ever grew.
func TestBoundNodesBuildNoCommitteeView(t *testing.T) {
	cfg := seqConfig(256, 16*256, 5)
	cfg.CommitteeScale = 0.02
	nw, nodes := buildCrashRun(t, cfg, sim.NoCrashes{}, false)
	defer nw.Close()
	if err := nw.Run(cfg.TotalRounds() + 1); err != nil {
		t.Fatal(err)
	}
	checkUnique(t, nw, nodes)
	built := 0
	for _, node := range nodes {
		if cap(node.committeeLinks) > 0 {
			built++
		}
	}
	if built > 0 {
		t.Fatalf("%d of %d bound nodes built their own committee view", built, len(nodes))
	}
}

// TestCrashPhaseAllocs pins the allocations of one failure-free phase
// (three rounds) at n = 1024 on one engine worker to 5, the count from
// before bound nodes read per-view summaries. The summaries live in
// fixed storage reused across rounds; one that allocated each time it
// is built would add at least one allocation per phase.
func TestCrashPhaseAllocs(t *testing.T) {
	const want = 5
	cfg := seqConfig(1024, 16*1024, 1024)
	cfg.CommitteeScale = 0.02
	nw, _ := buildCrashRun(t, cfg, sim.NoCrashes{}, false, sim.WithEngineWorkers(1))
	defer nw.Close()
	for r := 0; r < 6; r++ { // two warm phases
		nw.StepRound()
	}
	got := testing.AllocsPerRun(10, func() {
		for r := 0; r < 3; r++ {
			nw.StepRound()
		}
	})
	if got > want {
		t.Fatalf("a failure-free phase allocates %v times, want at most %d", got, want)
	}
}

func TestCrashNoFailuresSmall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64} {
		cfg := seqConfig(n, 16*n+5, int64(n))
		nw, nodes := runCrash(t, cfg, nil)
		checkUnique(t, nw, nodes)
		if got := nw.Crashes(); got != 0 {
			t.Fatalf("n=%d: unexpected crashes %d", n, got)
		}
	}
}

func TestCrashRandomFailures(t *testing.T) {
	for _, n := range []int{8, 32, 64} {
		for seed := int64(0); seed < 5; seed++ {
			cfg := seqConfig(n, 8*n, seed)
			adv := &adversary.RandomCrashes{
				Budget: n - 1, Prob: 0.05, MidSendProb: 0.5,
				Rand: rand.New(rand.NewSource(seed + 99)),
			}
			nw, nodes := runCrash(t, cfg, adv)
			checkUnique(t, nw, nodes)
		}
	}
}

func TestCrashCommitteeKiller(t *testing.T) {
	for _, n := range []int{16, 64} {
		for seed := int64(0); seed < 3; seed++ {
			cfg := seqConfig(n, 4*n, seed)
			adv := &adversary.CommitteeKiller{
				Budget: n - 1, MidSend: true,
				Rand: rand.New(rand.NewSource(seed)),
			}
			nw, nodes := runCrash(t, cfg, adv)
			checkUnique(t, nw, nodes)
			if nw.AliveCount() == 0 {
				t.Fatalf("n=%d: adversary crashed everyone (budget bug)", n)
			}
		}
	}
}

// TestCrashIntervalOccupancy checks Lemma 2.3: at the end of the run, at
// most |I| nodes chose intervals inside any node's interval I.
func TestCrashIntervalOccupancy(t *testing.T) {
	cfg := seqConfig(48, 500, 7)
	adv := &adversary.RandomCrashes{Budget: 20, Prob: 0.08, Rand: rand.New(rand.NewSource(3))}
	nw, nodes := runCrash(t, cfg, adv)
	var ivs []interval.Interval
	for i, node := range nodes {
		if nw.Alive(i) {
			iv, _, _ := node.State()
			ivs = append(ivs, iv)
		}
	}
	for _, outer := range ivs {
		inside := 0
		for _, inner := range ivs {
			if outer.Contains(inner) {
				inside++
			}
		}
		if inside > outer.Size() {
			t.Fatalf("interval %v holds %d > %d nodes", outer, inside, outer.Size())
		}
	}
}

// TestCrashSmallCommittee scales the election constant down so that the
// committee is genuinely small (the paper's constant 256 makes the
// probability exceed 1 at laptop scale), exercising the re-election and
// conflict-resolution paths.
func TestCrashSmallCommittee(t *testing.T) {
	for _, n := range []int{64, 128, 256} {
		for seed := int64(0); seed < 4; seed++ {
			cfg := seqConfig(n, 4*n, seed)
			cfg.CommitteeScale = 0.05
			adv := &adversary.CommitteeKiller{
				Budget: n / 2, MidSend: true, Rand: rand.New(rand.NewSource(seed * 31)),
			}
			nw, nodes := runCrash(t, cfg, adv)
			checkUnique(t, nw, nodes)
		}
	}
}

// TestCrashInboxSlabsLinearInN pins the convergecast's representation,
// not only its bytes: statuses and responses both travel as shared ToSet
// entries, so a round's engine arenas hold O(n + K) messages, never the
// K·n explicit responses. A run to completion must leave at most 4
// messages of arena per node (the shared path needs 2.5: one status
// segment of n per round parity, with 25% growth headroom). The burst
// rows crash three nodes before the first round, so no phase's status
// senders span all n links and every batch travels over the interned
// response set instead of the universal one.
func TestCrashInboxSlabsLinearInN(t *testing.T) {
	msgSize := int64(unsafe.Sizeof(sim.Message{}))
	for _, n := range []int{256, 1024, 4096} {
		for _, burst := range []bool{false, true} {
			cfg := seqConfig(n, 16*n, int64(n))
			cfg.CommitteeScale = 0.02
			var adv sim.CrashAdversary
			if burst {
				adv = &adversary.BurstCrash{Round: 0, Nodes: []int{1, n / 2, n - 1}}
			}
			nw, nodes := runCrash(t, cfg, adv)
			checkUnique(t, nw, nodes)
			got := nw.MemStats().InboxSlabBytes
			if limit := 4 * int64(n) * msgSize; got > limit {
				t.Errorf("n=%d burst=%v: inbox slabs hold %.1f messages per node, want at most 4",
					n, burst, float64(got)/float64(msgSize*int64(n)))
			}
		}
	}
}

// TestCrashDeterminism verifies that two executions with the same seed
// are metric-identical.
func TestCrashDeterminism(t *testing.T) {
	run := func() (int64, int64, int) {
		cfg := seqConfig(64, 512, 42)
		cfg.CommitteeScale = 0.1
		adv := &adversary.RandomCrashes{Budget: 30, Prob: 0.1, MidSendProb: 0.3,
			Rand: rand.New(rand.NewSource(5))}
		nw, nodes := runCrash(t, cfg, adv)
		checkUnique(t, nw, nodes)
		m := nw.Metrics()
		return m.Messages, m.Bits, nw.Crashes()
	}
	m1, b1, f1 := run()
	m2, b2, f2 := run()
	if m1 != m2 || b1 != b2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", m1, b1, f1, m2, b2, f2)
	}
}

// TestCrashConfigValidate: malformed configurations are errors, never
// panics — including a namespace whose fields overflow the two-word
// packed payload layout, the crash path's only wire representation.
func TestCrashConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  CrashConfig
		want string // substring of the error; "" = valid
	}{
		{"valid", seqConfig(16, 256, 1), ""},
		{"no nodes", CrashConfig{N: 16}, "no nodes"},
		{"namespace below n", CrashConfig{N: 1, IDs: []int{1, 2}}, "smaller than"},
		{"identity out of range", CrashConfig{N: 4, IDs: []int{1, 5}}, "outside"},
		{"duplicate identity", CrashConfig{N: 4, IDs: []int{3, 3}}, "duplicate"},
		// N = 2^63-1 and n = 2^24 need 63 + 2·25 + 2·8 + 1 = 130 bits.
		// The check precedes the identity scan, so the zero identities
		// (never touched) cost no resident memory.
		{"payload beyond packed layout", CrashConfig{N: math.MaxInt64, IDs: make([]int, 1<<24)}, "128-bit packed layout"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
