package renaming

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"renaming/internal/core"
	"renaming/internal/sim"
)

func TestRunCrashBasic(t *testing.T) {
	res, err := RunCrash(64, CrashSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique {
		t.Fatal("expected unique strong renaming")
	}
	if res.Crashes != 0 {
		t.Fatalf("crashes = %d, want 0", res.Crashes)
	}
	if res.Rounds == 0 || res.Messages == 0 {
		t.Fatalf("suspicious metrics: %+v", res)
	}
}

func TestRunCrashWithKiller(t *testing.T) {
	res, err := RunCrash(128, CrashSpec{
		Seed:           7,
		CommitteeScale: 0.05,
		Fault:          FaultSpec{Kind: FaultCommitteeKiller, Budget: 60, MidSend: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique {
		t.Fatal("expected unique renaming despite committee killer")
	}
	if res.Crashes == 0 {
		t.Fatal("killer crashed nobody — adversary wiring broken")
	}
}

func TestRunByzantineBasic(t *testing.T) {
	res, err := RunByzantine(24, ByzSpec{
		Seed: 3,
		Byzantine: map[int]Behavior{
			2: BehaviorSplitWorld, 9: BehaviorEquivocate, 17: BehaviorSilent,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AssumptionHolds {
		t.Skip("committee composition outside guarantee envelope for this seed")
	}
	if !res.Unique {
		t.Fatal("expected unique renaming")
	}
	if !res.OrderPreserving {
		t.Fatal("expected order-preserving renaming")
	}
	if res.Byzantine != 3 {
		t.Fatalf("byzantine = %d", res.Byzantine)
	}
}

func TestRunByzantineRejectsTooManyFaults(t *testing.T) {
	byz := make(map[int]Behavior)
	for i := 0; i < 10; i++ {
		byz[i] = BehaviorSilent
	}
	if _, err := RunByzantine(12, ByzSpec{Seed: 1, Byzantine: byz}); err == nil {
		t.Fatal("expected error for f ≥ (1/3−ε₀)n")
	}
}

func TestRunBaselines(t *testing.T) {
	for _, kind := range []BaselineKind{BaselineAllToAllCrash, BaselineCollectSort,
		BaselineAllToAllByzantine, BaselineConsensusBroadcast} {
		spec := BaselineSpec{Kind: kind, Seed: 2}
		if kind == BaselineAllToAllByzantine || kind == BaselineConsensusBroadcast {
			spec.Byzantine = []int{4, 13}
		}
		res, err := RunBaseline(48, spec)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if !res.Unique {
			t.Fatalf("kind %d: expected unique renaming", kind)
		}
	}
}

func TestGenerateIDs(t *testing.T) {
	for _, pattern := range []IDPattern{IDsRandom, IDsEven, IDsClustered} {
		ids, err := GenerateIDs(100, 5000, pattern, 9)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		for _, id := range ids {
			if id < 1 || id > 5000 {
				t.Fatalf("pattern %d: id %d out of range", pattern, id)
			}
			if seen[id] {
				t.Fatalf("pattern %d: duplicate id %d", pattern, id)
			}
			seen[id] = true
		}
	}
	if _, err := GenerateIDs(10, 5, IDsRandom, 1); err == nil {
		t.Fatal("expected error for N < n")
	}
}

func TestRunCrashDeterministic(t *testing.T) {
	spec := CrashSpec{Seed: 11, CommitteeScale: 0.1,
		Fault: FaultSpec{Kind: FaultRandom, Budget: 20, Prob: 0.05, MidSend: true}}
	a, err := RunCrash(96, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCrash(96, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || a.Bits != b.Bits || a.Crashes != b.Crashes {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a, b)
	}
	for i := range a.NewIDByLink {
		if a.NewIDByLink[i] != b.NewIDByLink[i] {
			t.Fatalf("new id differs at %d", i)
		}
	}
}

func TestRunCrashTrace(t *testing.T) {
	var buf strings.Builder
	res, err := RunCrash(16, CrashSpec{Seed: 1, Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique {
		t.Fatal("renaming failed")
	}
	out := buf.String()
	if !strings.Contains(out, "notify") || !strings.Contains(out, "status") {
		t.Fatalf("trace missing payload kinds:\n%s", out)
	}
	if res.MaxNodeSent == 0 || res.MaxNodeReceived == 0 {
		t.Fatalf("per-node load not recorded: %+v", res)
	}
}

// goldenCrash16 is the RunCrash(16, {Seed: 1}) timeline: twelve
// failure-free phases of notify (committee broadcast), status (shared
// multicast to the committee) and response rounds, then the final
// response-processing round.
const goldenCrash16 = `round    0:    256 msgs      256 bits  notify×256
round    1:    256 msgs     6400 bits  status×256
round    2:    256 msgs     6656 bits  response×256
round    3:    256 msgs      256 bits  notify×256
round    4:    256 msgs     6400 bits  status×256
round    5:    256 msgs     6656 bits  response×256
round    6:    256 msgs      256 bits  notify×256
round    7:    256 msgs     6400 bits  status×256
round    8:    256 msgs     6656 bits  response×256
round    9:    256 msgs      256 bits  notify×256
round   10:    256 msgs     6400 bits  status×256
round   11:    256 msgs     6656 bits  response×256
round   12:    256 msgs      256 bits  notify×256
round   13:    256 msgs     6400 bits  status×256
round   14:    256 msgs     6656 bits  response×256
round   15:    256 msgs      256 bits  notify×256
round   16:    256 msgs     6400 bits  status×256
round   17:    256 msgs     6656 bits  response×256
round   18:    256 msgs      256 bits  notify×256
round   19:    256 msgs     6400 bits  status×256
round   20:    256 msgs     6656 bits  response×256
round   21:    256 msgs      256 bits  notify×256
round   22:    256 msgs     6400 bits  status×256
round   23:    256 msgs     6656 bits  response×256
round   24:    256 msgs      256 bits  notify×256
round   25:    256 msgs     6400 bits  status×256
round   26:    256 msgs     6656 bits  response×256
round   27:    256 msgs      256 bits  notify×256
round   28:    256 msgs     6400 bits  status×256
round   29:    256 msgs     6656 bits  response×256
round   30:    256 msgs      256 bits  notify×256
round   31:    256 msgs     6400 bits  status×256
round   32:    256 msgs     6656 bits  response×256
round   33:    256 msgs      256 bits  notify×256
round   34:    256 msgs     6400 bits  status×256
round   35:    256 msgs     6656 bits  response×256
round   36:      0 msgs        0 bits  (quiet)
`

// TestTraceTimelinesGolden pins the Trace timelines (renamesim -trace)
// byte for byte. The goldens were recorded from per-message delivery
// streams, so they also prove the digest-fed recorder writes the same
// text. The Byzantine and mid-send-killer timelines (hundreds of lines)
// are pinned by SHA-256.
func TestTraceTimelinesGolden(t *testing.T) {
	cases := []struct {
		name    string
		run     func(w io.Writer) (*Result, error)
		literal string // the whole timeline, when short enough to read
		sha256  string // hex SHA-256 of the timeline otherwise
	}{
		{name: "crash n=16", run: func(w io.Writer) (*Result, error) {
			return RunCrash(16, CrashSpec{Seed: 1, Trace: w})
		}, literal: goldenCrash16},
		{name: "byzantine n=12", run: func(w io.Writer) (*Result, error) {
			return RunByzantine(12, ByzSpec{Seed: 3, Byzantine: map[int]Behavior{2: BehaviorSplitWorld}, Trace: w})
		}, sha256: "2e9907d56d4f4fa54c52fa141828c0fedbcde0b5c70880043922148b1ac02c07"},
		{name: "crash n=32 mid-send killer", run: func(w io.Writer) (*Result, error) {
			return RunCrash(32, CrashSpec{Seed: 4, CommitteeScale: 0.1, Trace: w,
				Fault: FaultSpec{Kind: FaultCommitteeKiller, Budget: 8, MidSend: true}})
		}, sha256: "5dca5c9af2268f35335ae1d5c22c4ab5106450950a6cdaa616368631cc22fab4"},
	}
	for _, tc := range cases {
		var buf strings.Builder
		if _, err := tc.run(&buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := buf.String()
		if tc.literal != "" && got != tc.literal {
			t.Errorf("%s: timeline diverged from the golden:\n%s", tc.name, got)
		}
		if h := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); tc.sha256 != "" && h != tc.sha256 {
			t.Errorf("%s: timeline SHA-256 %s, want %s:\n%s", tc.name, h, tc.sha256, got)
		}
	}
}

// TestRoundDigestSumsMatchMetrics: summed over a run, the per-round
// digests account exactly what Metrics does — messages, bits, and the
// per-kind breakdown — on a run whose committee killer crashes members
// mid-send, so filtered shared broadcasts and multicasts are expanded
// and billed per surviving wire message.
func TestRoundDigestSumsMatchMetrics(t *testing.T) {
	const n = 64
	ids, err := GenerateIDs(n, 16*n, IDsEven, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.CrashConfig{N: 16 * n, IDs: ids, Seed: 9, CommitteeScale: 0.05}
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = core.NewCrashNode(cfg, i)
	}
	var msgs, bits int64
	perKind := make(map[string]int64)
	rounds := 0
	nw := sim.NewNetwork(nodes,
		sim.WithCrashAdversary(FaultSpec{Kind: FaultCommitteeKiller, Budget: n / 4, MidSend: true}.build(cfg.Seed)),
		sim.WithPeek(func(i int) any { return nodes[i].(*core.CrashNode).Peek() }),
		sim.WithRoundDigest(func(d sim.RoundDigest) {
			rounds++
			msgs += d.Messages
			bits += d.Bits
			for k, v := range d.PerKind {
				perKind[k] += v
			}
		}))
	defer nw.Close()
	if err := nw.Run(cfg.TotalRounds() + 1); err != nil {
		t.Fatal(err)
	}
	m := nw.Metrics()
	if nw.Crashes() == 0 {
		t.Fatal("killer crashed nobody — the mid-send path was not exercised")
	}
	if rounds != m.Rounds || msgs != m.Messages || bits != m.Bits || !reflect.DeepEqual(perKind, m.PerKind) {
		t.Fatalf("digest sums rounds=%d msgs=%d bits=%d kinds=%v, metrics rounds=%d msgs=%d bits=%d kinds=%v",
			rounds, msgs, bits, perKind, m.Rounds, m.Messages, m.Bits, m.PerKind)
	}
}

func TestRunCrashEarlyStopPublic(t *testing.T) {
	slow, err := RunCrash(128, CrashSpec{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunCrash(128, CrashSpec{Seed: 2, EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slow.Unique || !fast.Unique {
		t.Fatal("renaming failed")
	}
	if fast.Rounds >= slow.Rounds {
		t.Fatalf("early stop did not reduce rounds: %d vs %d", fast.Rounds, slow.Rounds)
	}
}

func TestRunByzantineMinoritySplit(t *testing.T) {
	res, err := RunByzantine(24, ByzSpec{
		Seed:      5,
		Byzantine: map[int]Behavior{3: BehaviorMinoritySplit},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AssumptionHolds && (!res.Unique || !res.OrderPreserving) {
		t.Fatalf("minority split broke renaming: %+v", res)
	}
}

// TestCrashTrafficShape pins the failure-free per-kind message counts to
// the protocol's arithmetic: a fixed committee of size c produces
// c·n notifications, n·c statuses, and c·n responses per phase.
func TestCrashTrafficShape(t *testing.T) {
	n := 64
	res, err := RunCrash(n, CrashSpec{Seed: 6, CommitteeScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique {
		t.Fatal("renaming failed")
	}
	phases := int64(res.Rounds / 3)
	c := int64(res.CommitteeSize)
	if res.PerKind["notify"] != c*int64(n)*phases {
		t.Fatalf("notify = %d, want c·n·phases = %d", res.PerKind["notify"], c*int64(n)*phases)
	}
	if res.PerKind["status"] != res.PerKind["response"] {
		t.Fatalf("status %d ≠ response %d in a failure-free run",
			res.PerKind["status"], res.PerKind["response"])
	}
	if res.PerKind["status"] != int64(n)*c*phases {
		t.Fatalf("status = %d, want n·c·phases = %d", res.PerKind["status"], int64(n)*c*phases)
	}
}

// TestRunByzantineRushing subjects the algorithm to rushing equivocators
// — Byzantine committee members that see each round's honest votes before
// splitting theirs — and requires the guarantees to survive.
func TestRunByzantineRushing(t *testing.T) {
	ran := false
	for seed := int64(0); seed < 8 && !ran; seed++ {
		res, err := RunByzantine(27, ByzSpec{
			Seed: seed,
			Byzantine: map[int]Behavior{
				4:  BehaviorRushingEquivocate,
				13: BehaviorRushingEquivocate,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AssumptionHolds {
			continue
		}
		ran = true
		if !res.Unique || !res.OrderPreserving {
			t.Fatalf("rushing equivocators broke renaming: %+v", res)
		}
	}
	if !ran {
		t.Fatal("no seed satisfied the committee assumption")
	}
}

// TestCrashTightBijection: with zero failures, strong (tight) renaming
// means the new identities are exactly a permutation of [1, n].
func TestCrashTightBijection(t *testing.T) {
	for _, n := range []int{7, 32, 129} {
		res, err := RunCrash(n, CrashSpec{Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]bool, n+1)
		for link, id := range res.NewIDByLink {
			if id < 1 || id > n || got[id] {
				t.Fatalf("n=%d link=%d id=%d not a bijection", n, link, id)
			}
			got[id] = true
		}
	}
}

// TestByzantineTightBijection: with zero Byzantine nodes the new
// identities are exactly [1, n].
func TestByzantineTightBijection(t *testing.T) {
	n := 30
	res, err := RunByzantine(n, ByzSpec{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]bool, n+1)
	for link, id := range res.NewIDByLink {
		if id < 1 || id > n || got[id] {
			t.Fatalf("link=%d id=%d not a bijection", link, id)
		}
		got[id] = true
	}
}

func TestRunCrashValidation(t *testing.T) {
	if _, err := RunCrash(4, CrashSpec{IDs: []int{1, 2}}); err == nil {
		t.Fatal("ids/n mismatch accepted")
	}
	if _, err := RunCrash(4, CrashSpec{N: 2}); err == nil {
		t.Fatal("N < n accepted")
	}
	if _, err := RunCrash(3, CrashSpec{N: 10, IDs: []int{1, 1, 2}}); err == nil {
		t.Fatal("duplicate ids accepted")
	}
}

func TestRunByzantineValidation(t *testing.T) {
	if _, err := RunByzantine(4, ByzSpec{IDs: []int{9}}); err == nil {
		t.Fatal("ids/n mismatch accepted")
	}
	if _, err := RunByzantine(3, ByzSpec{N: 12, IDs: []int{0, 1, 2}}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
}

// TestRejectsMalformedNumbersAndLinks: a malformed committee scale,
// pool probability, Byzantine link or behaviour is an error, not a run
// whose failure looks like the protocol's.
func TestRejectsMalformedNumbersAndLinks(t *testing.T) {
	crash := func(scale float64) func() (*Result, error) {
		return func() (*Result, error) { return RunCrash(16, CrashSpec{Seed: 1, CommitteeScale: scale}) }
	}
	byz := func(spec ByzSpec) func() (*Result, error) {
		return func() (*Result, error) { spec.Seed = 1; return RunByzantine(16, spec) }
	}
	split := BehaviorSplitWorld
	cases := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"committee scale NaN", crash(math.NaN())},
		{"committee scale -1", crash(-1)},
		{"committee scale +Inf", crash(math.Inf(1))},
		{"pool probability NaN", byz(ByzSpec{PoolProb: math.NaN()})},
		{"pool probability -1", byz(ByzSpec{PoolProb: -1})},
		{"Byzantine link 99", byz(ByzSpec{Byzantine: map[int]Behavior{99: split}})},
		{"Byzantine link -1", byz(ByzSpec{Byzantine: map[int]Behavior{-1: split}})},
		{"undefined behavior", byz(ByzSpec{Byzantine: map[int]Behavior{3: Behavior(99)}})},
	}
	for _, tc := range cases {
		if res, err := tc.run(); err == nil {
			t.Errorf("%s: accepted (unique=%v, %d messages)", tc.name, res.Unique, res.Messages)
		}
	}
}

func TestAdversaryLinks(t *testing.T) {
	// n ≡ 0 (mod 3) with f > n/3: the naive (3i+1) mod n stride only
	// visits n/3 residues, so the old placement silently under-provisioned
	// the adversary. The fixed placement must produce f distinct links.
	links, err := AdversaryLinks(96, 33)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 33 {
		t.Fatalf("placed %d links, want 33", len(links))
	}
	seen := make(map[int]bool)
	for _, link := range links {
		if link < 0 || link >= 96 {
			t.Fatalf("link %d out of range", link)
		}
		if seen[link] {
			t.Fatalf("duplicate link %d", link)
		}
		seen[link] = true
	}

	// Whenever the naive enumeration is collision-free (every experiment
	// call site, which keeps historical sweeps byte-identical), the fixed
	// placement matches it exactly.
	links, err = AdversaryLinks(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, link := range links {
		if link != (3*i+1)%64 {
			t.Fatalf("collision-free placement diverged at %d: got %d, want %d", i, link, (3*i+1)%64)
		}
	}

	// Invalid shapes error loudly instead of dividing by zero or looping.
	for _, bad := range []struct{ n, f int }{{0, 0}, {0, 3}, {-1, 1}, {8, -1}, {8, 8}, {8, 9}} {
		if _, err := AdversaryLinks(bad.n, bad.f); err == nil {
			t.Errorf("AdversaryLinks(%d, %d) accepted", bad.n, bad.f)
		}
	}
	if links, err := AdversaryLinks(5, 0); err != nil || len(links) != 0 {
		t.Fatalf("f=0 should place nothing: %v, %v", links, err)
	}
}
