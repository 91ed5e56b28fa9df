package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"renaming/internal/runner"
)

// TestCampaignDeterministicAcrossWorkers is the satellite determinism
// check: a fixed-seed campaign must produce byte-identical JSONL
// telemetry at 1 and 8 workers (per-execution seeds are fixed before
// scheduling and the sink flushes in point order).
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	jsonl := func(workers int) []byte {
		var buf bytes.Buffer
		_, err := Run(Spec{
			Algo: AlgoCrash, N: 32, Executions: 12, Seed: 42,
			Budget:  BudgetDefault,
			Workers: workers,
			Sinks:   []runner.Sink{&runner.JSONLSink{W: &buf, OmitVolatile: true}},
		})
		if err != nil {
			t.Fatalf("campaign (workers=%d): %v", workers, err)
		}
		return buf.Bytes()
	}
	one := jsonl(1)
	eight := jsonl(8)
	if len(one) == 0 {
		t.Fatal("campaign emitted no telemetry")
	}
	if !bytes.Equal(one, eight) {
		t.Fatalf("JSONL differs between workers=1 (%d bytes) and workers=8 (%d bytes)", len(one), len(eight))
	}
	if got := jsonlDigest(one); got != crashCampaignDigest {
		t.Errorf("campaign JSONL digest %s, want %s", got, crashCampaignDigest)
	}
}

// crashCampaignDigest and serviceCampaignDigest pin the SHA-256 of the
// JSONL (volatile fields omitted) of the two workers-determinism
// campaigns. Update them only for a deliberate change of a generator,
// the oracle or a protocol, never for a refactor or a performance
// change.
const (
	crashCampaignDigest   = "953dc3c0e390e4694f00c2e753645e62d3d3bc47a4fe3f857254ee47b41d3012"
	serviceCampaignDigest = "8c2a15b655ecd8732b07c09e27ffc60d579bffd380cfb8016cce3df0ac2f19bd"
)

func jsonlDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCampaignCrashNoViolations: the paper's crash algorithm must
// survive a randomized mixed campaign with zero oracle violations.
func TestCampaignCrashNoViolations(t *testing.T) {
	out, err := Run(Spec{Algo: AlgoCrash, N: 48, Executions: 25, Seed: 3, Budget: BudgetDefault})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("crash campaign produced %d violations; first: %+v", len(out.Violations), out.Violations[0])
	}
	if len(out.Records) != 25 {
		t.Fatalf("want 25 records, got %d", len(out.Records))
	}
	for _, tail := range out.Tails {
		if tail.Count != 25 {
			t.Fatalf("tail %s aggregated %d executions, want 25", tail.Metric, tail.Count)
		}
		if !tail.WithinEnvelope {
			t.Fatalf("tail %s outside envelope: max %.3f > %.3f", tail.Metric, tail.Max, tail.Envelope)
		}
		if tail.P50 > tail.P95 || tail.P95 > tail.P99 || tail.P99 > tail.Max {
			t.Fatalf("tail %s quantiles not monotone: %+v", tail.Metric, tail)
		}
	}
}

// TestCampaignByzantineNoViolations: same for the Byzantine algorithm
// under uniformly drawn corruption sets inside the assumption bound.
func TestCampaignByzantineNoViolations(t *testing.T) {
	out, err := Run(Spec{Algo: AlgoByzantine, N: 24, Executions: 8, Seed: 5, Budget: BudgetDefault})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("byzantine campaign produced %d violations; first: %+v", len(out.Violations), out.Violations[0])
	}
}

// TestCampaignBaselineSameSchedules: the baseline algo must accept the
// same generated crash schedules (shared replay path).
func TestCampaignBaselineSameSchedules(t *testing.T) {
	out, err := Run(Spec{Algo: AlgoBaselineA2A, N: 32, Executions: 6, Seed: 9, Budget: BudgetDefault})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("baseline campaign produced %d violations; first: %+v", len(out.Violations), out.Violations[0])
	}
}

// TestGenerateDeterministicAndValid: strategies are a pure function of
// (spec, seed) and respect the generation envelope.
func TestGenerateDeterministicAndValid(t *testing.T) {
	for _, kind := range []GeneratorKind{GenEarlyBurst, GenTrickle, GenTargeted, GenMixed} {
		spec := GenSpec{Kind: kind, N: 64, Budget: 16, Rounds: CrashRoundCeiling(64)}
		for seed := int64(0); seed < 20; seed++ {
			a, err := Generate(spec, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			b, _ := Generate(spec, seed)
			if len(a.Schedule) != len(b.Schedule) || a.ScheduleSeed != b.ScheduleSeed {
				t.Fatalf("%s seed %d: generation not deterministic", kind, seed)
			}
			for i := range a.Schedule {
				if a.Schedule[i] != b.Schedule[i] {
					t.Fatalf("%s seed %d: event %d differs between generations", kind, seed, i)
				}
			}
			if len(a.Schedule) > spec.Budget {
				t.Fatalf("%s seed %d: %d events exceed budget %d", kind, seed, len(a.Schedule), spec.Budget)
			}
			nodes := make(map[int]bool)
			for i, ev := range a.Schedule {
				if ev.Node < 0 || ev.Node >= spec.N {
					t.Fatalf("%s seed %d: node %d out of range", kind, seed, ev.Node)
				}
				if nodes[ev.Node] {
					t.Fatalf("%s seed %d: node %d crashed twice", kind, seed, ev.Node)
				}
				nodes[ev.Node] = true
				if ev.Round < 0 || ev.Round >= spec.Rounds {
					t.Fatalf("%s seed %d: round %d out of [0,%d)", kind, seed, ev.Round, spec.Rounds)
				}
				if i > 0 && a.Schedule[i-1].Round > ev.Round {
					t.Fatalf("%s seed %d: schedule not sorted by round", kind, seed)
				}
			}
		}
	}
	for _, kind := range []GeneratorKind{GenByzUniform, GenByzSkew, GenByzSilent} {
		spec := GenSpec{Kind: kind, N: 64, Budget: 10}
		for seed := int64(0); seed < 20; seed++ {
			strat, err := Generate(spec, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
			if len(strat.Byzantine) == 0 || len(strat.Byzantine) > spec.Budget {
				t.Fatalf("%s seed %d: %d corruptions outside (0,%d]", kind, seed, len(strat.Byzantine), spec.Budget)
			}
			if _, err := strat.ByzMap(); err != nil {
				t.Fatalf("%s seed %d: %v", kind, seed, err)
			}
		}
	}
}

// TestGenerateMixedFault: the mixed crash+Byzantine family draws both
// lists from one budget on disjoint links, always corrupts at least one
// node, and salts every crash event.
func TestGenerateMixedFault(t *testing.T) {
	spec := GenSpec{Kind: GenMixedFault, N: 64, Budget: 12, Rounds: CrashRoundCeiling(64)}
	sawCrash := false
	for seed := int64(0); seed < 30; seed++ {
		a, err := Generate(spec, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, _ := Generate(spec, seed)
		if len(a.Byzantine) != len(b.Byzantine) || len(a.Schedule) != len(b.Schedule) {
			t.Fatalf("seed %d: generation not deterministic", seed)
		}
		total := len(a.Byzantine) + len(a.Schedule)
		if len(a.Byzantine) < 1 || total > spec.Budget {
			t.Fatalf("seed %d: %d byz + %d crashes outside (0,%d]", seed, len(a.Byzantine), len(a.Schedule), spec.Budget)
		}
		links := make(map[int]bool)
		for _, asn := range a.Byzantine {
			if links[asn.Link] {
				t.Fatalf("seed %d: link %d assigned twice", seed, asn.Link)
			}
			links[asn.Link] = true
		}
		for _, ev := range a.Schedule {
			sawCrash = true
			if links[ev.Node] {
				t.Fatalf("seed %d: node %d both Byzantine and crashed", seed, ev.Node)
			}
			links[ev.Node] = true
			if ev.Salt == 0 {
				t.Fatalf("seed %d: crash event missing its salt", seed)
			}
			if ev.TargetCommittee {
				t.Fatalf("seed %d: mixed-fault must not emit targeted-committee events", seed)
			}
		}
		if _, err := a.ByzMap(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if !sawCrash {
		t.Fatal("no seed produced a crash event; the mix never exercises the crash path")
	}
}

// TestCampaignMixedFaultNoViolations: the Byzantine algorithm must
// survive simultaneous corruptions and honest-node crashes — crashed
// committee members count toward the assumption bound, crashed honest
// nodes are excused from deciding.
func TestCampaignMixedFaultNoViolations(t *testing.T) {
	out, err := Run(Spec{
		Algo: AlgoByzantine, N: 24, Executions: 8, Seed: 11,
		Generator: GenMixedFault, Budget: BudgetDefault,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("mixed-fault campaign produced %d violations; first: %+v", len(out.Violations), out.Violations[0])
	}
	sawCrash := false
	for _, rec := range out.Records {
		if rec.Metrics.Crashes > 0 {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatal("no execution crashed a node; the campaign never exercised the mixed path")
	}
}

// TestCampaignZeroFaultBudget: an explicit Budget of 0 is a zero-fault
// campaign (previously impossible — 0 was conflated with "unset"): the
// normalized budget stays 0 and every execution runs failure-free.
func TestCampaignZeroFaultBudget(t *testing.T) {
	out, err := Run(Spec{Algo: AlgoCrash, N: 32, Executions: 4, Seed: 7, Budget: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Spec.Budget != 0 {
		t.Fatalf("normalized budget = %d, want the explicit 0", out.Spec.Budget)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("zero-fault campaign violated the oracle: %+v", out.Violations[0])
	}
	for _, rec := range out.Records {
		if rec.Metrics.Crashes != 0 {
			t.Fatalf("exec %d crashed %d nodes under a zero budget", rec.Index, rec.Metrics.Crashes)
		}
	}
}

// TestSpecValidation rejects unknown algos and generators, mismatched
// generator/algo pairs, a custom oracle the service would ignore, and
// bad sizes.
func TestSpecValidation(t *testing.T) {
	ceiling := CrashExpectation(32)
	ceiling.RoundCeiling = 5
	cases := []Spec{
		{Algo: AlgoCrash, N: 0, Executions: 1},
		{Algo: AlgoCrash, N: 32, Executions: 0},
		{Algo: AlgoCrash, N: 32, Executions: 1, Generator: GenByzUniform},
		{Algo: AlgoByzantine, N: 32, Executions: 1, Generator: GenMixed},
		{Algo: AlgoCrash, N: 32, Executions: 1, Budget: 32},
		{Algo: AlgoCrash, N: 32, Executions: 1, Budget: -2},
		{Algo: "byzantine-typo", N: 32, Executions: 1},
		{Algo: "byzantine-typo", N: 32, Executions: 1, Generator: GenMixed},
		{Algo: AlgoCrash, N: 32, Executions: 1, Generator: "mixd"},
		{Algo: AlgoService, N: 32, Executions: 1, Oracle: &Oracle{Expect: ceiling}},
	}
	for i, spec := range cases {
		if _, err := spec.withDefaults(); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, spec)
		}
	}
}
