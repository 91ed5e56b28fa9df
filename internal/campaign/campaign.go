package campaign

import (
	"fmt"

	"renaming"
	"renaming/internal/runner"
	"renaming/internal/service"
	"renaming/internal/sim"
)

// execLabel is the DeriveSeed stream label for per-execution seeds
// ("camp").
const execLabel uint64 = 0x63616d70

// Algo names the system under test.
type Algo string

const (
	// AlgoCrash is the paper's crash-resilient algorithm (Section 2).
	AlgoCrash Algo = "crash"
	// AlgoByzantine is the paper's Byzantine algorithm (Section 3).
	AlgoByzantine Algo = "byzantine"
	// AlgoBaselineA2A is the all-to-all interval-halving crash baseline —
	// it faces the exact same generated schedules as AlgoCrash, so
	// campaigns compare algorithms under identical adversaries.
	AlgoBaselineA2A Algo = "baseline-a2a"
	// AlgoService is the long-lived renaming service
	// (internal/service): each execution drives a seeded join/leave
	// trace for Spec.Epochs epochs against a GenChurn strategy, with
	// every epoch re-checked by the ServiceOracle. N is the service
	// capacity; Budget caps the strategy's total crash events across
	// the whole trace.
	AlgoService Algo = "service"
)

// Spec configures one campaign: Executions independent runs of Algo at
// size N, each against a fresh strategy drawn from Generator.
type Spec struct {
	// Algo is the system under test.
	Algo Algo
	// N is the network size.
	N int
	// BigN is the original namespace size; defaults to 16·N (crash,
	// baseline) or 8·N (Byzantine), matching the Run* defaults.
	BigN int
	// Executions is the number of randomized executions.
	Executions int
	// Seed is the campaign master seed: every execution seed, strategy,
	// and bootstrap resample derives from it.
	Seed int64
	// Generator selects the strategy distribution; it must match the
	// algo (crash generators for crash/baseline, byz-* for Byzantine).
	Generator GeneratorKind
	// Budget caps the adversary per execution (crashes or Byzantine
	// nodes). BudgetDefault (-1) selects the default — N/4 (crash) or
	// the Byzantine assumption bound; 0 is an explicit zero-fault
	// campaign (the oracle's fault-free envelope check).
	Budget int
	// CommitteeScale is passed through to the crash algorithm; defaults
	// to 0.02 (the experiment suite's scaled committee).
	CommitteeScale float64
	// PoolProb is passed through to the Byzantine algorithm; defaults
	// to 20/N (the E5 pool).
	PoolProb float64
	// Epochs is the trace length per execution (AlgoService only);
	// defaults to 24.
	Epochs int
	// Workers caps concurrent executions; <=0 means GOMAXPROCS. The
	// campaign artifact is byte-identical at any worker count.
	Workers int
	// Sinks receive one telemetry record per execution, in order.
	Sinks []runner.Sink
	// Oracle checks every execution; nil installs the theorem-derived
	// default for Algo (CrashExpectation / ByzantineExpectation).
	// AlgoService takes no custom oracle: its executions are checked per
	// epoch by a ServiceOracle.
	Oracle *Oracle
}

// BudgetDefault is the Spec.Budget sentinel selecting the default
// adversary budget. An explicit 0 means a zero-fault campaign — the two
// were previously conflated, making fault-free campaigns unexpressible.
const BudgetDefault = -1

// Normalized returns the spec with every default applied — the exact
// configuration Run would execute — or the validation error.
func (s Spec) Normalized() (Spec, error) { return s.withDefaults() }

// withDefaults normalizes the spec.
func (s Spec) withDefaults() (Spec, error) {
	if s.N <= 0 {
		return s, fmt.Errorf("campaign: n must be positive, got %d", s.N)
	}
	if s.Executions <= 0 {
		return s, fmt.Errorf("campaign: executions must be positive, got %d", s.Executions)
	}
	if s.Algo == "" {
		s.Algo = AlgoCrash
	}
	if s.Generator == "" {
		switch s.Algo {
		case AlgoByzantine:
			s.Generator = GenByzUniform
		case AlgoService:
			s.Generator = GenChurn
		default:
			s.Generator = GenMixed
		}
	}
	if err := CheckGenerator(s.Algo, s.Generator); err != nil {
		return s, err
	}
	if s.Algo == AlgoService && s.Oracle != nil && s.Oracle.Expect != (Expectation{}) {
		return s, fmt.Errorf("campaign: algo %q checks every epoch with its own ServiceOracle, so a custom oracle (such as a round-ceiling override) would be ignored", s.Algo)
	}
	if s.Epochs == 0 {
		s.Epochs = 24
	}
	if s.Epochs < 0 {
		return s, fmt.Errorf("campaign: epochs must be positive, got %d", s.Epochs)
	}
	if s.BigN == 0 {
		if s.Algo == AlgoByzantine {
			s.BigN = 8 * s.N
		} else {
			s.BigN = 16 * s.N
		}
	}
	if s.Budget == BudgetDefault {
		if s.Algo == AlgoByzantine {
			// Stay inside the Theorem 1.3 hypothesis f < (1/3−ε₀)·n with
			// the default ε₀ = 0.1, so the oracle's gated checks engage.
			s.Budget = max(1, int(float64(s.N)*(1.0/3-0.1))-1)
		} else {
			s.Budget = s.N / 4
		}
	}
	if s.Budget < 0 || s.Budget >= s.N {
		return s, fmt.Errorf("campaign: budget %d out of range [0, n) for n=%d (use BudgetDefault = -1 for the default)", s.Budget, s.N)
	}
	if s.CommitteeScale == 0 {
		s.CommitteeScale = 0.02
	}
	if s.PoolProb == 0 {
		s.PoolProb = 20.0 / float64(s.N)
	}
	if s.Oracle == nil {
		o := s.defaultOracle()
		s.Oracle = &o
	}
	return s, nil
}

func (s Spec) defaultOracle() Oracle {
	switch s.Algo {
	case AlgoByzantine:
		return Oracle{Expect: ByzantineExpectation(s.BigN, s.Budget)}
	case AlgoService:
		// Service executions are checked per epoch by a fresh
		// ServiceOracle instead of the one-shot expectation; the spec
		// oracle stays empty so its whole-trace envelopes never fire.
		return Oracle{}
	case AlgoBaselineA2A:
		// The baseline is strong and O(log n)-round but pays Θ(n²·log n)
		// messages by design, so only correctness and the cap apply; the
		// cap uses the same constant as ours (it sits near ratio 1.2).
		return Oracle{Expect: Expectation{
			RequireUnique:     true,
			MessageCeiling:    CrashMessageCeiling(s.N),
			CheckMessageFloor: true,
		}}
	default:
		return Oracle{Expect: CrashExpectation(s.N)}
	}
}

// ExecSeed returns the deterministic seed of execution i: fixed before
// any worker starts, never influenced by scheduling.
func (s Spec) ExecSeed(i int) int64 {
	return sim.DeriveSeed(s.Seed, execLabel^uint64(i)<<8)
}

// genSpec is the generation envelope for one execution.
func (s Spec) genSpec() GenSpec {
	if s.Algo == AlgoService {
		// Churn events live inside per-epoch one-shot runs over join
		// batches of at most joinMax links, across Spec.Epochs epochs.
		return GenSpec{
			Kind:     s.Generator,
			N:        s.N,
			Budget:   s.Budget,
			Rounds:   CrashRoundCeiling(s.serviceJoinMax()),
			Epochs:   s.Epochs,
			BatchMax: s.serviceJoinMax(),
		}
	}
	return GenSpec{
		Kind:   s.Generator,
		N:      s.N,
		Budget: s.Budget,
		Rounds: CrashRoundCeiling(s.N),
	}
}

// serviceJoinMax is the per-epoch join cap of a service execution's
// trace — the TraceSpec default for capacity N.
func (s Spec) serviceJoinMax() int { return max(1, s.N/8) }

// Outcome is a completed campaign.
type Outcome struct {
	// Spec is the normalized spec the campaign ran with.
	Spec Spec
	// Records holds one runner record per execution, in execution order;
	// Metrics.Violations carries each execution's oracle verdict codes.
	Records []runner.Record
	// Violations are the structured oracle breaches across the whole
	// campaign, in execution order, each with its replayable strategy.
	Violations []Violation
	// Tails are the campaign's tail statistics vs the theorem envelopes.
	Tails []Tail
}

// Run executes the campaign: Executions independent (config × strategy)
// runs fanned across the runner worker pool, each checked by the
// oracle, reduced to tail statistics. Execution failures (as opposed to
// invariant violations) abort the campaign.
func Run(spec Spec) (*Outcome, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	// Per-execution violation slots: each index is written by exactly
	// one worker and runner.Run establishes the happens-before edge
	// before returning.
	violations := make([][]Violation, spec.Executions)

	points := make([]runner.Point, spec.Executions)
	for i := 0; i < spec.Executions; i++ {
		i := i
		points[i] = runner.Point{
			Experiment: "campaign",
			Name:       fmt.Sprintf("%s/%s/exec=%d", spec.Algo, spec.Generator, i),
			Seed:       spec.ExecSeed(i),
			FixedSeed:  true,
			Params: map[string]string{
				"algo": string(spec.Algo), "gen": string(spec.Generator),
				"n": fmt.Sprint(spec.N), "N": fmt.Sprint(spec.BigN),
				"budget": fmt.Sprint(spec.Budget), "exec": fmt.Sprint(i),
			},
			Run: func(seed int64) (runner.Metrics, error) {
				strat, err := Generate(spec.genSpec(), seed)
				if err != nil {
					return runner.Metrics{}, err
				}
				m, _, viols, err := execute(spec, strat, seed)
				if err != nil {
					return runner.Metrics{}, err
				}
				for vi := range viols {
					viols[vi].Exec = i
				}
				violations[i] = viols
				return m, nil
			},
		}
	}
	records, err := runner.Run(points, runner.Options{Workers: spec.Workers, Sinks: spec.Sinks})
	if err != nil {
		return nil, err
	}
	for _, rec := range records {
		if rec.Err != "" {
			return nil, fmt.Errorf("campaign: exec %d (seed %d): %s", rec.Index, rec.Seed, rec.Err)
		}
	}
	out := &Outcome{Spec: spec, Records: records}
	for _, vs := range violations {
		out.Violations = append(out.Violations, vs...)
	}
	out.Tails = Tails(spec, records)
	return out, nil
}

// execute runs spec's algorithm once against strat at seed and checks
// the run — one-shot algos with spec.Oracle, the service with a fresh
// ServiceOracle per execution. It returns the run's metrics (Violations
// set to the invariant codes), its result (for AlgoService the
// trace-aggregate Result), and the violations stamped with seed and
// strat. Campaign runs, shrink replays and artifact replays all execute
// through it; each caller stamps its own Exec.
func execute(spec Spec, strat Strategy, seed int64) (runner.Metrics, *renaming.Result, []Violation, error) {
	run := runOneShot
	if spec.Algo == AlgoService {
		run = runService
	}
	m, res, viols, err := run(spec, strat, seed)
	if err != nil {
		return runner.Metrics{}, nil, nil, err
	}
	for i := range viols {
		viols[i].Seed = seed
		viols[i].Strategy = strat
	}
	m.Violations = Codes(viols)
	return m, res, viols, nil
}

// runService drives one long-lived service execution against a churn
// strategy: Spec.Epochs epochs of a seeded join/leave trace over a
// capacity-N namespace, every epoch re-checked by a fresh
// ServiceOracle. The metrics and the Result aggregate the whole trace
// (sums over epochs; service population counters in Extra); the
// violations are epoch-keyed.
func runService(spec Spec, strat Strategy, seed int64) (runner.Metrics, *renaming.Result, []Violation, error) {
	driver, err := service.NewTraceDriver(service.TraceSpec{
		Capacity: spec.N, BigN: spec.BigN, Seed: seed,
	})
	if err != nil {
		return runner.Metrics{}, nil, nil, err
	}
	svc, err := service.New(service.Config{
		Capacity: spec.N, BigN: spec.BigN, Seed: seed,
		CommitteeScale: spec.CommitteeScale,
		FaultForEpoch:  strat.ChurnFault(),
	})
	if err != nil {
		return runner.Metrics{}, nil, nil, err
	}
	// Campaigns build one service per execution; Close each so pooled
	// one-shot engines don't pile up waiting on finalizers.
	defer svc.Close()
	oracle := NewServiceOracle(spec.N, service.CoreCrash)
	m := runner.Metrics{Unique: true, OrderPreserving: true, AssumptionHolds: true}
	var viols []Violation
	var joined, failed, released, recycled, aborted, peakLive int
	for e := 0; e < spec.Epochs; e++ {
		joins, leaves, err := driver.NextEpoch(svc.LiveClients())
		if err != nil {
			return runner.Metrics{}, nil, nil, err
		}
		er, err := svc.RunEpoch(joins, leaves)
		if err != nil {
			return runner.Metrics{}, nil, nil, err
		}
		viols = append(viols, oracle.CheckEpoch(er)...)
		m.Rounds += er.Rounds
		m.Messages += er.Messages
		m.Bits += er.Bits
		m.HonestMessages += er.HonestMessages
		m.HonestBits += er.HonestBits
		m.Crashes += er.Crashes
		joined += er.Joined
		failed += er.FailedJoins
		released += len(er.Released)
		recycled += er.Recycled
		if er.Aborted {
			aborted++
		}
		peakLive = er.PeakLive
	}
	for _, v := range viols {
		switch v.Invariant {
		case InvOrder:
			m.OrderPreserving = false
		default:
			m.Unique = false
		}
	}
	m.Extra = map[string]float64{
		"epochs":        float64(spec.Epochs),
		"joined":        float64(joined),
		"failedJoins":   float64(failed),
		"released":      float64(released),
		"recycled":      float64(recycled),
		"abortedEpochs": float64(aborted),
		"peakLive":      float64(peakLive),
		"live":          float64(svc.Live()),
	}
	// There is no single one-shot execution to hand back, so the Result
	// carries the trace-aggregate metrics.
	res := &renaming.Result{
		Unique: m.Unique, OrderPreserving: m.OrderPreserving,
		Crashes: m.Crashes, Rounds: m.Rounds,
		Messages: m.Messages, Bits: m.Bits,
		HonestMessages: m.HonestMessages, HonestBits: m.HonestBits,
	}
	return m, res, viols, nil
}

// runOneShot runs one crash, Byzantine or baseline execution against
// strat and checks it with spec.Oracle (the original identities feed
// its order recheck).
func runOneShot(spec Spec, strat Strategy, seed int64) (runner.Metrics, *renaming.Result, []Violation, error) {
	ids, err := renaming.GenerateIDs(spec.N, spec.BigN, renaming.IDsEven, seed)
	if err != nil {
		return runner.Metrics{}, nil, nil, err
	}
	var res *renaming.Result
	switch spec.Algo {
	case AlgoByzantine:
		byz, berr := strat.ByzMap()
		if berr != nil {
			return runner.Metrics{}, nil, nil, berr
		}
		res, err = renaming.RunByzantine(spec.N, renaming.ByzSpec{
			N: spec.BigN, IDs: ids, Seed: seed, PoolProb: spec.PoolProb,
			Byzantine: byz, Fault: strat.Fault(), Profile: true,
		})
	case AlgoBaselineA2A:
		res, err = renaming.RunBaseline(spec.N, renaming.BaselineSpec{
			Kind: renaming.BaselineAllToAllCrash,
			N:    spec.BigN, IDs: ids, Seed: seed, Fault: strat.Fault(),
		})
	default:
		res, err = renaming.RunCrash(spec.N, renaming.CrashSpec{
			N: spec.BigN, IDs: ids, Seed: seed,
			CommitteeScale: spec.CommitteeScale, Fault: strat.Fault(), Profile: true,
		})
	}
	if err != nil {
		return runner.Metrics{}, nil, nil, err
	}
	return runner.FromResult(res, spec.N), res, spec.Oracle.Check(spec.N, ids, res), nil
}
