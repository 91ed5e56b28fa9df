package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"renaming"
	"renaming/internal/adversary"
)

// Fails reports whether a candidate strategy still reproduces the
// failure being minimized. It must be deterministic.
type Fails func(strat Strategy) (bool, error)

// ddmin greedily minimizes items while keep(items) stays true: it
// repeatedly tries removing chunks, halving the chunk size from
// len(items)/2 down to single elements, restarting whenever a removal
// sticks. The classic delta-debugging reduction, specialized to
// "remove-only" (the schedules being shrunk have no recombination
// structure). A failure that persists on the empty list shrinks all
// the way to it — e.g. a broken-oracle fixture that flags every run.
func ddmin[T any](items []T, keep func([]T) (bool, error)) ([]T, error) {
	current := append([]T(nil), items...)
	chunk := len(current) / 2
	if chunk < 1 {
		chunk = 1
	}
	for len(current) > 0 {
		removedAny := false
		for start := 0; start < len(current); {
			end := start + chunk
			if end > len(current) {
				end = len(current)
			}
			candidate := make([]T, 0, len(current)-(end-start))
			candidate = append(candidate, current[:start]...)
			candidate = append(candidate, current[end:]...)
			ok, err := keep(candidate)
			if err != nil {
				return nil, err
			}
			if ok {
				current = candidate
				removedAny = true
				// Do not advance start: the slice shifted left.
			} else {
				start = end
			}
		}
		if !removedAny {
			if chunk == 1 {
				break
			}
			chunk /= 2
		}
	}
	return current, nil
}

// ShrinkSchedule minimizes a crash schedule with respect to fails:
// first delta-debugs the event list down to a locally minimal subset,
// then simplifies surviving events (drops mid-send filters, grounds
// rounds to 0) where the failure persists. The result still fails.
func ShrinkSchedule(strat Strategy, fails Fails) (Strategy, error) {
	withSchedule := func(events []adversary.Event) Strategy {
		s := strat
		s.Schedule = events
		return s
	}
	events, err := ddmin(strat.Schedule, func(candidate []adversary.Event) (bool, error) {
		return fails(withSchedule(candidate))
	})
	if err != nil {
		return Strategy{}, err
	}
	// Attribute simplification: each surviving event is reduced
	// field-by-field when the reduction preserves the failure.
	for i := range events {
		for _, simplify := range []func(*adversary.Event){
			func(ev *adversary.Event) { ev.MidSend = false },
			func(ev *adversary.Event) { ev.Round = 0 },
		} {
			candidate := append([]adversary.Event(nil), events...)
			simplify(&candidate[i])
			if candidate[i] == events[i] {
				continue
			}
			ok, err := fails(withSchedule(candidate))
			if err != nil {
				return Strategy{}, err
			}
			if ok {
				events = candidate
			}
		}
	}
	return withSchedule(events), nil
}

// ShrinkChurn minimizes an epoch-keyed churn schedule with respect to
// fails: delta-debugs the event list, then simplifies surviving events
// (drops mid-send filters, grounds rounds to 0) where the failure
// persists. The epoch key is never touched — moving an event across
// epochs would change which one-shot run it lands in, i.e. produce a
// different strategy rather than a smaller one.
func ShrinkChurn(strat Strategy, fails Fails) (Strategy, error) {
	withChurn := func(events []ChurnEvent) Strategy {
		s := strat
		s.Churn = events
		return s
	}
	events, err := ddmin(strat.Churn, func(candidate []ChurnEvent) (bool, error) {
		return fails(withChurn(candidate))
	})
	if err != nil {
		return Strategy{}, err
	}
	for i := range events {
		for _, simplify := range []func(*ChurnEvent){
			func(ev *ChurnEvent) { ev.MidSend = false },
			func(ev *ChurnEvent) { ev.Round = 0 },
		} {
			candidate := append([]ChurnEvent(nil), events...)
			simplify(&candidate[i])
			if candidate[i] == events[i] {
				continue
			}
			ok, err := fails(withChurn(candidate))
			if err != nil {
				return Strategy{}, err
			}
			if ok {
				events = candidate
			}
		}
	}
	return withChurn(events), nil
}

// ShrinkByzantine minimizes a Byzantine assignment with respect to
// fails by delta-debugging the corruption list.
func ShrinkByzantine(strat Strategy, fails Fails) (Strategy, error) {
	assignments, err := ddmin(strat.Byzantine, func(candidate []ByzAssignment) (bool, error) {
		s := strat
		s.Byzantine = candidate
		return fails(s)
	})
	if err != nil {
		return Strategy{}, err
	}
	strat.Byzantine = assignments
	return strat, nil
}

// ArtifactVersion is the current replayable-artifact format. Version 2
// added the per-event salt (the stable mid-send filter identity of
// adversary.Event.Salt). LoadArtifact accepts exactly this version:
// older artifacts keyed their mid-send filters by slice index, which no
// longer replays, and newer ones may carry fields this build misreads.
const ArtifactVersion = 2

// ReproArtifact is a minimal, replayable reproducer for one violation:
// everything needed to re-execute the offending run from scratch.
type ReproArtifact struct {
	// Version is the artifact format version (see ArtifactVersion).
	Version int `json:"version,omitempty"`
	// Algo, N, BigN, Seed, CommitteeScale, PoolProb reconstruct the
	// execution configuration.
	Algo           Algo    `json:"algo"`
	N              int     `json:"n"`
	BigN           int     `json:"N"`
	Seed           int64   `json:"seed"`
	CommitteeScale float64 `json:"committeeScale,omitempty"`
	PoolProb       float64 `json:"poolProb,omitempty"`
	EarlyStop      bool    `json:"earlyStop,omitempty"`
	// Epochs is the service-trace length (AlgoService artifacts only).
	Epochs int `json:"epochs,omitempty"`
	// Invariant and Detail describe the violation being reproduced.
	Invariant string `json:"invariant"`
	Detail    string `json:"detail,omitempty"`
	// Strategy is the (shrunk) adversary strategy.
	Strategy Strategy `json:"strategy"`
}

// Shrink minimizes the violating strategy of v under spec and returns a
// replayable artifact. The failure predicate is "replaying the strategy
// still violates the same invariant under the campaign's oracle" —
// shrinking never drifts onto a different failure. Crash/baseline
// strategies shrink their schedules; Byzantine strategies their
// corruption sets.
func Shrink(spec Spec, v Violation) (*ReproArtifact, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	fails := func(strat Strategy) (bool, error) {
		return violates(spec, strat, v.Seed, v.Invariant)
	}
	// The reported strategy must fail its own predicate; a mismatch
	// means the violation is not deterministic in (seed, strategy) and
	// shrinking would minimize noise.
	still, err := fails(v.Strategy)
	if err != nil {
		return nil, err
	}
	if !still {
		return nil, fmt.Errorf("campaign: violation %q at exec %d does not reproduce — refusing to shrink", v.Invariant, v.Exec)
	}
	var shrunk Strategy
	if spec.Algo == AlgoByzantine {
		shrunk, err = ShrinkByzantine(v.Strategy, fails)
		if err == nil && len(shrunk.Schedule) > 0 {
			// Mixed-fault strategies carry a crash schedule too; shrink
			// it after the corruption set so the final artifact is
			// locally minimal in both lists.
			shrunk, err = ShrinkSchedule(shrunk, fails)
		}
	} else if spec.Algo == AlgoService {
		shrunk, err = ShrinkChurn(v.Strategy, fails)
	} else {
		shrunk, err = ShrinkSchedule(v.Strategy, fails)
	}
	if err != nil {
		return nil, err
	}
	a := &ReproArtifact{
		Version: ArtifactVersion,
		Algo:    spec.Algo, N: spec.N, BigN: spec.BigN, Seed: v.Seed,
		CommitteeScale: spec.CommitteeScale, PoolProb: spec.PoolProb,
		EarlyStop: spec.EarlyStop,
		Invariant: v.Invariant, Detail: v.Detail, Strategy: shrunk,
	}
	if spec.Algo == AlgoService {
		a.Epochs = spec.Epochs
	}
	return a, nil
}

// violates replays strat at seed under spec and reports whether the
// oracle still flags the given invariant.
func violates(spec Spec, strat Strategy, seed int64, invariant string) (bool, error) {
	if spec.Algo == AlgoService {
		_, viols, err := replayServiceStrategy(spec, strat, seed)
		if err != nil {
			return false, err
		}
		for _, found := range viols {
			if found.Invariant == invariant {
				return true, nil
			}
		}
		return false, nil
	}
	ids, err := renaming.GenerateIDs(spec.N, spec.BigN, renaming.IDsEven, seed)
	if err != nil {
		return false, err
	}
	res, err := replayStrategy(spec, strat, seed, ids)
	if err != nil {
		return false, err
	}
	for _, found := range spec.Oracle.Check(spec.N, ids, res) {
		if found.Invariant == invariant {
			return true, nil
		}
	}
	return false, nil
}

// Replay re-executes the artifact and rechecks it against the oracle
// (the artifact's violation should reappear unless the underlying bug
// has been fixed). The artifact's own expectation is the theorem
// default for its algo.
func (a *ReproArtifact) Replay() (*renaming.Result, []Violation, error) {
	spec, err := a.Spec().withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if spec.Algo == AlgoService {
		// A service artifact replays the whole churn trace; the
		// returned Result carries the trace-aggregate metrics (there
		// is no single one-shot execution to hand back).
		m, viols, err := replayServiceStrategy(spec, a.Strategy, a.Seed)
		if err != nil {
			return nil, nil, err
		}
		for i := range viols {
			viols[i].Seed = a.Seed
			viols[i].Strategy = a.Strategy
		}
		res := &renaming.Result{
			Unique: m.Unique, OrderPreserving: m.OrderPreserving,
			Crashes: m.Crashes, Rounds: m.Rounds,
			Messages: m.Messages, Bits: m.Bits,
			HonestMessages: m.HonestMessages, HonestBits: m.HonestBits,
		}
		return res, viols, nil
	}
	ids, err := renaming.GenerateIDs(spec.N, spec.BigN, renaming.IDsEven, a.Seed)
	if err != nil {
		return nil, nil, err
	}
	res, err := replayStrategy(spec, a.Strategy, a.Seed, ids)
	if err != nil {
		return nil, nil, err
	}
	viols := spec.Oracle.Check(spec.N, ids, res)
	for i := range viols {
		viols[i].Seed = a.Seed
		viols[i].Strategy = a.Strategy
	}
	return res, viols, nil
}

// Spec reconstructs a single-execution campaign spec from the artifact.
func (a *ReproArtifact) Spec() Spec {
	return Spec{
		Algo: a.Algo, N: a.N, BigN: a.BigN, Executions: 1, Seed: a.Seed,
		Generator:      a.Strategy.Generator,
		Budget:         BudgetDefault,
		CommitteeScale: a.CommitteeScale, PoolProb: a.PoolProb,
		EarlyStop: a.EarlyStop,
		Epochs:    a.Epochs,
	}
}

// Encode writes the artifact as indented JSON.
func (a *ReproArtifact) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// SaveArtifact writes the artifact to path.
func SaveArtifact(a *ReproArtifact, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadArtifact reads a replayable artifact from path.
func LoadArtifact(path string) (*ReproArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a ReproArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("campaign: artifact %s: %w", path, err)
	}
	if a.N <= 0 {
		return nil, fmt.Errorf("campaign: artifact %s: missing n", path)
	}
	if a.Version > ArtifactVersion {
		return nil, fmt.Errorf("campaign: artifact %s: format version %d is newer than this build's %d", path, a.Version, ArtifactVersion)
	}
	if a.Version < ArtifactVersion {
		return nil, fmt.Errorf("campaign: artifact %s: format version %d predates per-event salts (version %d) and cannot be replayed", path, a.Version, ArtifactVersion)
	}
	return &a, nil
}
