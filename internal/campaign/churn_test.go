package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"renaming/internal/adversary"
	"renaming/internal/runner"
	"renaming/internal/service"
)

func TestGenerateChurnDeterministicAndBounded(t *testing.T) {
	spec := GenSpec{Kind: GenChurn, N: 64, Budget: 12, Rounds: 40, Epochs: 20, BatchMax: 8}
	a, err := Generate(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (spec, seed) generated different churn strategies")
	}
	if a.Generator != GenChurn {
		t.Fatalf("generator %q, want %q", a.Generator, GenChurn)
	}
	if len(a.Churn) > spec.Budget {
		t.Fatalf("%d churn events exceed budget %d", len(a.Churn), spec.Budget)
	}
	for i, ev := range a.Churn {
		if ev.Epoch < 0 || ev.Epoch >= spec.Epochs {
			t.Errorf("event %d: epoch %d outside [0, %d)", i, ev.Epoch, spec.Epochs)
		}
		if ev.Node < 0 || ev.Node >= spec.BatchMax {
			t.Errorf("event %d: node %d outside [0, %d)", i, ev.Node, spec.BatchMax)
		}
		if ev.Round < 0 || ev.Round >= spec.Rounds {
			t.Errorf("event %d: round %d outside [0, %d)", i, ev.Round, spec.Rounds)
		}
		if i > 0 {
			prev := a.Churn[i-1]
			if ev.Epoch < prev.Epoch || (ev.Epoch == prev.Epoch && ev.Round < prev.Round) {
				t.Errorf("events %d and %d out of (epoch, round) order", i-1, i)
			}
		}
	}
}

func TestChurnFaultScopesEventsToEpochs(t *testing.T) {
	strat := Strategy{
		Generator:    GenChurn,
		ScheduleSeed: 99,
		Churn: []ChurnEvent{
			{Epoch: 0, Event: adversary.Event{Round: 1, Node: 0, Salt: 1}},
			{Epoch: 2, Event: adversary.Event{Round: 3, Node: 1, Salt: 2}},
			{Epoch: 2, Event: adversary.Event{Round: 5, Node: 2, Salt: 3}},
		},
	}
	fault := strat.ChurnFault()
	for epoch, wantEvents := range map[int]int{0: 1, 1: 0, 2: 2, 3: 0} {
		spec := fault(epoch, 8)
		if wantEvents == 0 {
			// Fault-free epochs carry no custom adversary at all.
			if spec.Custom != nil {
				t.Errorf("epoch %d: expected empty fault spec, got %+v", epoch, spec)
			}
			continue
		}
		sched, ok := spec.Custom.(*adversary.EventSchedule)
		if !ok {
			t.Fatalf("epoch %d: fault spec carries %T, want *adversary.EventSchedule", epoch, spec.Custom)
		}
		if len(sched.Events) != wantEvents {
			t.Errorf("epoch %d: %d events scheduled, want %d", epoch, len(sched.Events), wantEvents)
		}
		if sched.Seed != strat.ScheduleSeed {
			t.Errorf("epoch %d: schedule seed %d, want %d", epoch, sched.Seed, strat.ScheduleSeed)
		}
	}
}

// TestServiceCampaignSmoke runs a small churn campaign end-to-end and
// requires a clean oracle plus service-specific telemetry in the
// records and tails.
func TestServiceCampaignSmoke(t *testing.T) {
	out, err := Run(Spec{
		Algo: AlgoService, N: 32, Executions: 8, Epochs: 40,
		Budget: 8, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("service campaign flagged %d violations: %+v", len(out.Violations), out.Violations[0])
	}
	if len(out.Records) != 8 {
		t.Fatalf("%d records, want 8", len(out.Records))
	}
	var joined, recycled float64
	for _, rec := range out.Records {
		if rec.Err != "" {
			t.Fatalf("execution %d failed: %s", rec.Index, rec.Err)
		}
		if rec.Metrics.Extra["epochs"] != 40 {
			t.Fatalf("execution %d ran %v epochs, want 40", rec.Index, rec.Metrics.Extra["epochs"])
		}
		joined += rec.Metrics.Extra["joined"]
		recycled += rec.Metrics.Extra["recycled"]
	}
	if joined == 0 {
		t.Error("no client ever joined across the campaign")
	}
	if recycled == 0 {
		t.Error("no name was ever recycled across the campaign")
	}
	metrics := make(map[string]bool)
	for _, tail := range out.Tails {
		metrics[tail.Metric] = true
	}
	if !metrics["recycled"] || !metrics["abortedEpochs"] {
		t.Errorf("service tails missing recycled/abortedEpochs: %v", metrics)
	}
}

// TestServiceCampaignDeterministicAcrossWorkers mirrors the one-shot
// campaign determinism check for the churn path.
func TestServiceCampaignDeterministicAcrossWorkers(t *testing.T) {
	jsonl := func(workers int) []byte {
		var buf bytes.Buffer
		_, err := Run(Spec{
			Algo: AlgoService, N: 32, Executions: 6, Epochs: 8,
			Budget: 6, Seed: 23, Workers: workers,
			Sinks: []runner.Sink{&runner.JSONLSink{W: &buf, OmitVolatile: true}},
		})
		if err != nil {
			t.Fatalf("campaign (workers=%d): %v", workers, err)
		}
		return buf.Bytes()
	}
	one := jsonl(1)
	eight := jsonl(8)
	if len(one) == 0 {
		t.Fatal("campaign produced no JSONL output")
	}
	if !bytes.Equal(one, eight) {
		t.Fatal("service campaign JSONL differs between 1 and 8 workers")
	}
	if got := jsonlDigest(one); got != serviceCampaignDigest {
		t.Errorf("service campaign JSONL digest %s, want %s", got, serviceCampaignDigest)
	}
}

func TestSpecRejectsMismatchedChurnPairing(t *testing.T) {
	if _, err := Run(Spec{Algo: AlgoCrash, N: 32, Executions: 1, Generator: GenChurn}); err == nil {
		t.Error("churn generator with a one-shot algo was accepted")
	}
	if _, err := Run(Spec{Algo: AlgoService, N: 32, Executions: 1, Generator: GenMixed}); err == nil {
		t.Error("one-shot generator with the service algo was accepted")
	}
}

// TestServiceOracleFlagsDoctoredEpochs feeds hand-corrupted epoch
// results to the oracle and requires each tampering to surface as the
// right invariant code.
func TestServiceOracleFlagsDoctoredEpochs(t *testing.T) {
	base := func() *service.EpochResult {
		return &service.EpochResult{
			Epoch: 0, JoinsRequested: 2, Joined: 2,
			Assignments: []service.Assignment{
				{Client: 10, Name: 1, Rank: 1},
				{Client: 20, Name: 2, Rank: 2},
			},
			Live: 2, FreeNames: 6, PeakLive: 2,
			Unique: true, AssumptionHolds: true,
		}
	}
	has := func(viols []Violation, invariant string) bool {
		for _, v := range viols {
			if v.Invariant == invariant {
				return true
			}
		}
		return false
	}

	t.Run("clean", func(t *testing.T) {
		if viols := NewServiceOracle(8, service.CoreCrash).CheckEpoch(base()); len(viols) != 0 {
			t.Fatalf("clean epoch flagged: %+v", viols)
		}
	})
	t.Run("duplicate rank", func(t *testing.T) {
		er := base()
		er.Assignments[1].Rank = 1
		if viols := NewServiceOracle(8, service.CoreCrash).CheckEpoch(er); !has(viols, InvUniqueness) {
			t.Fatalf("duplicate rank not flagged: %+v", viols)
		}
	})
	t.Run("name outside namespace", func(t *testing.T) {
		er := base()
		er.Assignments[0].Name = 9
		if viols := NewServiceOracle(8, service.CoreCrash).CheckEpoch(er); !has(viols, InvNamespace) {
			t.Fatalf("out-of-range name not flagged: %+v", viols)
		}
	})
	t.Run("double grant of a live name", func(t *testing.T) {
		o := NewServiceOracle(8, service.CoreCrash)
		if viols := o.CheckEpoch(base()); len(viols) != 0 {
			t.Fatalf("setup epoch flagged: %+v", viols)
		}
		er := &service.EpochResult{
			Epoch: 1, JoinsRequested: 1, Joined: 1,
			Assignments: []service.Assignment{{Client: 30, Name: 1, Rank: 1}},
			Live:        3, FreeNames: 5, PeakLive: 3,
			Unique: true, AssumptionHolds: true,
		}
		if viols := o.CheckEpoch(er); !has(viols, InvRecycle) {
			t.Fatalf("double grant not flagged: %+v", viols)
		}
	})
	t.Run("release of unowned name", func(t *testing.T) {
		er := base()
		er.LeavesRequested = 1
		er.Released = []service.Release{{Client: 99, Name: 5}}
		if viols := NewServiceOracle(8, service.CoreCrash).CheckEpoch(er); !has(viols, InvRecycle) {
			t.Fatalf("bogus release not flagged: %+v", viols)
		}
	})
	t.Run("conservation breach", func(t *testing.T) {
		er := base()
		er.FreeNames = 7
		if viols := NewServiceOracle(8, service.CoreCrash).CheckEpoch(er); !has(viols, InvConservation) {
			t.Fatalf("live+free ≠ capacity not flagged: %+v", viols)
		}
	})
	t.Run("aborted epoch with deltas", func(t *testing.T) {
		er := base()
		er.Aborted = true
		er.Live = 0
		er.FreeNames = 8
		if viols := NewServiceOracle(8, service.CoreCrash).CheckEpoch(er); !has(viols, InvRollback) {
			t.Fatalf("dirty abort not flagged: %+v", viols)
		}
	})
	t.Run("round ceiling", func(t *testing.T) {
		er := base()
		er.Rounds = 1000
		if viols := NewServiceOracle(8, service.CoreCrash).CheckEpoch(er); !has(viols, InvRoundCeiling) {
			t.Fatalf("round blow-up not flagged: %+v", viols)
		}
	})
	t.Run("order swap under the byzantine core", func(t *testing.T) {
		er := base()
		er.Assignments = []service.Assignment{
			{Client: 20, Name: 1, Rank: 1},
			{Client: 10, Name: 2, Rank: 2},
		}
		viols := NewServiceOracle(8, service.CoreByzantine).CheckEpoch(er)
		if !has(viols, InvOrder) {
			t.Fatalf("order swap not flagged: %+v", viols)
		}
		if crash := NewServiceOracle(8, service.CoreCrash).CheckEpoch(er); has(crash, InvOrder) {
			t.Fatalf("crash core flagged order (carries no order guarantee): %+v", crash)
		}
	})
}
