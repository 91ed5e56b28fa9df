package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

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

// ShrinkStrategy minimizes strat with respect to fails. It delta-debugs
// the corruption list, then the crash schedule, then the epoch-keyed
// churn list, each with the other lists held fixed; ddmin on an empty
// list costs no replay. It then simplifies every surviving crash event
// field by field — drops its mid-send filter, grounds its round to 0 —
// where the failure persists. Epoch keys are never touched: moving an
// event across epochs would land it in a different one-shot run, i.e.
// produce a different strategy rather than a smaller one. The result
// still fails.
func ShrinkStrategy(strat Strategy, fails Fails) (Strategy, error) {
	strat, err := ddminList(strat, fails, func(s *Strategy) *[]ByzAssignment { return &s.Byzantine })
	if err == nil {
		strat, err = ddminList(strat, fails, func(s *Strategy) *[]adversary.Event { return &s.Schedule })
	}
	if err == nil {
		strat, err = ddminList(strat, fails, func(s *Strategy) *[]ChurnEvent { return &s.Churn })
	}
	if err != nil {
		return Strategy{}, err
	}
	for i := range len(strat.Schedule) + len(strat.Churn) {
		for _, simplify := range []func(*adversary.Event){
			func(ev *adversary.Event) { ev.MidSend = false },
			func(ev *adversary.Event) { ev.Round = 0 },
		} {
			candidate := strat
			candidate.Schedule = slices.Clone(strat.Schedule)
			candidate.Churn = slices.Clone(strat.Churn)
			var ev *adversary.Event
			if i < len(candidate.Schedule) {
				ev = &candidate.Schedule[i]
			} else {
				ev = &candidate.Churn[i-len(candidate.Schedule)].Event
			}
			before := *ev
			simplify(ev)
			if *ev == before {
				continue
			}
			ok, err := fails(candidate)
			if err != nil {
				return Strategy{}, err
			}
			if ok {
				strat = candidate
			}
		}
	}
	return strat, nil
}

// ddminList delta-debugs the list that field selects in strat.
func ddminList[T any](strat Strategy, fails Fails, field func(*Strategy) *[]T) (Strategy, error) {
	kept, err := ddmin(*field(&strat), func(candidate []T) (bool, error) {
		s := strat
		*field(&s) = candidate
		return fails(s)
	})
	if err != nil {
		return Strategy{}, err
	}
	*field(&strat) = kept
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
// shrinking never drifts onto a different failure.
func Shrink(spec Spec, v Violation) (*ReproArtifact, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	fails := func(strat Strategy) (bool, error) {
		_, _, viols, err := execute(spec, strat, v.Seed)
		if err != nil {
			return false, err
		}
		for _, found := range viols {
			if found.Invariant == v.Invariant {
				return true, nil
			}
		}
		return false, nil
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
	shrunk, err := ShrinkStrategy(v.Strategy, fails)
	if err != nil {
		return nil, err
	}
	a := &ReproArtifact{
		Version: ArtifactVersion,
		Algo:    spec.Algo, N: spec.N, BigN: spec.BigN, Seed: v.Seed,
		CommitteeScale: spec.CommitteeScale, PoolProb: spec.PoolProb,
		Invariant: v.Invariant, Detail: v.Detail, Strategy: shrunk,
	}
	if spec.Algo == AlgoService {
		a.Epochs = spec.Epochs
	}
	return a, nil
}

// Replay re-executes the artifact and rechecks it against the oracle
// (the artifact's violation should reappear unless the underlying bug
// has been fixed). The artifact's own expectation is the theorem
// default for its algo; a service artifact replays the whole churn
// trace and returns its trace-aggregate Result.
func (a *ReproArtifact) Replay() (*renaming.Result, []Violation, error) {
	spec, err := a.Spec().withDefaults()
	if err != nil {
		return nil, nil, err
	}
	_, res, viols, err := execute(spec, a.Strategy, a.Seed)
	return res, viols, err
}

// Spec reconstructs a single-execution campaign spec from the artifact.
func (a *ReproArtifact) Spec() Spec {
	return Spec{
		Algo: a.Algo, N: a.N, BigN: a.BigN, Executions: 1, Seed: a.Seed,
		Generator:      a.Strategy.Generator,
		Budget:         BudgetDefault,
		CommitteeScale: a.CommitteeScale, PoolProb: a.PoolProb,
		Epochs: a.Epochs,
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
