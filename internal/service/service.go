package service

import (
	"fmt"
	"math"
	"sort"

	"renaming"
	"renaming/internal/sim"
)

// epochLabel is the DeriveSeed stream label for per-epoch one-shot
// seeds ("epch"), mixed with the epoch index.
const epochLabel uint64 = 0x65706368

// EpochSeed derives the one-shot seed an epoch runs under from the
// service seed — exported so telemetry records can carry the exact seed
// that reproduces the epoch's inner run.
func EpochSeed(seed int64, epoch int) int64 {
	return sim.DeriveSeed(seed, epochLabel^uint64(epoch)<<8)
}

// Core selects which one-shot algorithm runs inside each epoch.
type Core string

const (
	// CoreCrash runs the crash-resilient algorithm (Section 2) per epoch.
	CoreCrash Core = "crash"
	// CoreByzantine runs the Byzantine-resilient, order-preserving
	// algorithm (Section 3) per epoch; it additionally gives every join
	// batch the per-epoch order guarantee.
	CoreByzantine Core = "byzantine"
)

// Config configures a Service.
type Config struct {
	// Capacity is the size of the recyclable namespace [1, Capacity]; it
	// bounds the live population. Tightness means live names never leave
	// this window no matter how many clients the trace serves in total.
	// At most math.MaxInt32, as the free list stores names as int32.
	Capacity int
	// BigN is the original namespace clients draw identities from;
	// defaults to 16·Capacity. Every epoch's one-shot run works over
	// [BigN], so it also bounds the inner protocol's log N factors.
	BigN int
	// Seed fixes every epoch's one-shot execution; equal configs and
	// request streams produce bit-identical epoch results at any
	// EngineWorkers setting.
	Seed int64
	// Core selects the inner one-shot algorithm; defaults to CoreCrash.
	Core Core
	// CommitteeScale is passed to the crash core; defaults to 0.02 (the
	// experiment suite's scaled committee).
	CommitteeScale float64
	// EngineWorkers pins the round engine's worker count inside every
	// epoch (sim.WithEngineWorkers); results are bit-identical at any
	// setting.
	EngineWorkers int
	// Profile records each epoch's per-round traffic profile into
	// EpochResult.RoundStats through the round-digest path. The recorder
	// keeps one summary, with a per-kind count map, for every round of
	// the epoch's one-shot run.
	Profile bool
	// FaultForEpoch, when non-nil, supplies the crash adversary for the
	// epoch's one-shot run over a join batch of the given size — the
	// hook the campaign engine's churn strategies plug into. Node
	// indices in the returned spec address links of the epoch's network
	// (0..batch-1); out-of-range events are skipped by the schedule.
	FaultForEpoch func(epoch, batch int) renaming.FaultSpec
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.Capacity <= 0 {
		return cfg, fmt.Errorf("service: capacity must be positive, got %d", cfg.Capacity)
	}
	if cfg.Capacity > math.MaxInt32 {
		return cfg, fmt.Errorf("service: capacity %d above %d, the int32 name bound", cfg.Capacity, math.MaxInt32)
	}
	if cfg.BigN == 0 {
		cfg.BigN = 16 * cfg.Capacity
	}
	if cfg.BigN < cfg.Capacity {
		return cfg, fmt.Errorf("service: original namespace N=%d smaller than capacity %d", cfg.BigN, cfg.Capacity)
	}
	if cfg.Core == "" {
		cfg.Core = CoreCrash
	}
	if cfg.Core != CoreCrash && cfg.Core != CoreByzantine {
		return cfg, fmt.Errorf("service: unknown core %q", cfg.Core)
	}
	if cfg.CommitteeScale == 0 {
		cfg.CommitteeScale = 0.02
	}
	return cfg, nil
}

// Client is one external principal requesting a name. ID is its
// original identity in [1, BigN]; live clients have distinct IDs.
type Client struct {
	ID int `json:"id"`
}

// Assignment is one committed name grant: the joiner's one-shot rank in
// [1, batch] and the free-list name it mapped to. Assignments of an
// epoch are listed in rank order, which is also free-list pop order.
type Assignment struct {
	Client int `json:"client"`
	Name   int `json:"name"`
	Rank   int `json:"rank"`
}

// Release is one committed name release.
type Release struct {
	Client int `json:"client"`
	Name   int `json:"name"`
}

// EpochResult is the telemetry of one epoch: the committed state deltas
// (empty when the epoch aborted), the post-epoch population, and the
// inner one-shot run's communication metrics. It is plain marshalable
// data — the churn harness's JSONL records and the determinism
// fingerprint both derive from it.
type EpochResult struct {
	Epoch int `json:"epoch"`
	// JoinsRequested and LeavesRequested are the epoch's batch sizes.
	JoinsRequested  int `json:"joinsRequested"`
	LeavesRequested int `json:"leavesRequested"`
	// Joined counts committed joins; FailedJoins counts joiners that
	// crashed (or were corrupted) out of the one-shot run and got no
	// name. Joined + FailedJoins = JoinsRequested on a committed epoch.
	Joined      int `json:"joined"`
	FailedJoins int `json:"failedJoins"`
	// Aborted marks an epoch that decided not to commit: no table was
	// written, AbortReason says why. The communication metrics still
	// reflect the traffic the failed attempt cost.
	Aborted     bool   `json:"aborted,omitempty"`
	AbortReason string `json:"abortReason,omitempty"`
	// Assignments and Released are the committed deltas, in rank order
	// and release order respectively.
	Assignments []Assignment `json:"assignments,omitempty"`
	Released    []Release    `json:"released,omitempty"`
	// Live, FreeNames, PeakLive describe the post-epoch population;
	// Live + FreeNames = Capacity (the conservation invariant).
	Live      int `json:"live"`
	FreeNames int `json:"freeNames"`
	PeakLive  int `json:"peakLive"`
	// Recycled counts this epoch's grants of names that had previous
	// owners — the evidence names actually return to service.
	Recycled int `json:"recycled"`

	// One-shot run metrics (zero when the epoch had no joiners).
	Rounds          int   `json:"rounds"`
	Messages        int64 `json:"messages"`
	Bits            int64 `json:"bits"`
	HonestMessages  int64 `json:"honestMessages"`
	HonestBits      int64 `json:"honestBits"`
	Crashes         int   `json:"crashes"`
	Byzantine       int   `json:"byzantine,omitempty"`
	CommitteeSize   int   `json:"committeeSize,omitempty"`
	Unique          bool  `json:"unique"`
	AssumptionHolds bool  `json:"assumptionHolds"`
	// RoundStats is the epoch's per-round traffic profile (Config.Profile).
	RoundStats *renaming.RoundStats `json:"trace,omitempty"`
}

// rankedJoin pairs a surviving joiner's link with its one-shot rank.
type rankedJoin struct{ link, rank int }

// Service is the long-lived renaming service. It is single-threaded by
// design: epochs are stateful and strictly ordered (parallelism lives
// inside each epoch's round engine, behind EngineWorkers).
//
// Per-epoch overhead is O(batch), independent of Capacity: an epoch
// decides before it writes, so it touches only the entries of its own
// batch; the sorted live view is materialized lazily from O(batch)
// membership deltas; and the inner one-shot runs share a pooled round
// engine through a renaming.Session.
type Service struct {
	cfg  Config
	free *FreeList
	// names is the committed rename-map (RMT analog): client ID → name;
	// its key set is the authoritative live membership.
	names map[int]int
	// uses counts grants per name; a grant of a name with uses > 0 is a
	// recycle.
	uses []uint32

	// Incremental live view. live is the cached ascending materialization
	// of the membership; deltaAdd/deltaDel hold the joins and leaves
	// committed since it was last current. LiveClients folds the deltas
	// in with one merge (O(live + batch·log batch)) instead of paying an
	// O(live) memmove per join/leave. liveSpare double-buffers the merge
	// and addSort is the sort scratch, so steady-state materialization
	// allocates nothing.
	live      []int
	liveSpare []int
	deltaAdd  map[int]struct{}
	deltaDel  map[int]struct{}
	addSort   []int

	// Epoch-stamped validation scratch: a map entry is "seen this epoch"
	// iff it holds the current stamp, so the maps are never cleared —
	// reused across epochs with zero per-epoch allocation.
	valStamp  uint64
	seenJoin  map[int]uint64
	seenLeave map[int]uint64

	// Reused per-epoch scratch.
	idsBuf    []int // joiner identities handed to the one-shot core
	rankedBuf []rankedJoin

	// session pools the one-shot round engine across epochs (worker
	// goroutines, inbox slabs, counters); Close releases it.
	session *renaming.Session

	epoch    int
	peakLive int

	// Cumulative counters over the service lifetime.
	totalRecycled int64
	totalAborts   int64
}

// New builds a service with an all-free namespace.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	free, err := NewFreeList(cfg.Capacity)
	if err != nil {
		return nil, err
	}
	return &Service{
		cfg:       cfg,
		free:      free,
		names:     make(map[int]int),
		uses:      make([]uint32, cfg.Capacity+1),
		deltaAdd:  make(map[int]struct{}),
		deltaDel:  make(map[int]struct{}),
		seenJoin:  make(map[int]uint64),
		seenLeave: make(map[int]uint64),
		session:   renaming.NewSession(),
	}, nil
}

// Close releases the pooled one-shot engine (parked worker goroutines
// and slab arenas). Optional — a finalizer covers dropped services —
// but deterministic callers that build many services (the campaign
// engine builds one per execution) should Close each. Nil-safe and
// idempotent.
func (s *Service) Close() {
	if s != nil {
		s.session.Close()
	}
}

// Capacity returns the namespace size.
func (s *Service) Capacity() int { return s.cfg.Capacity }

// Epoch returns the next epoch index RunEpoch will execute.
func (s *Service) Epoch() int { return s.epoch }

// Live returns the live population.
func (s *Service) Live() int { return len(s.names) }

// FreeNames returns the free-list length.
func (s *Service) FreeNames() int { return s.free.Len() }

// LiveClients returns the live client IDs in ascending order,
// materializing any membership deltas committed since the last call.
// The returned slice is owned by the service and valid until the next
// mutating call (RunEpoch); callers must not mutate it.
func (s *Service) LiveClients() []int {
	s.materializeLive()
	return s.live
}

// Snapshot returns a copy of the committed client → name mapping. It is
// O(live) — a caller/oracle convenience for state comparison, not a
// hot-path helper: the service itself never snapshots, because an epoch
// that aborts has written nothing.
func (s *Service) Snapshot() map[int]int {
	out := make(map[int]int, len(s.names))
	for c, n := range s.names {
		out[c] = n
	}
	return out
}

// Recycled returns the cumulative count of recycled grants.
func (s *Service) Recycled() int64 { return s.totalRecycled }

// Aborts returns the cumulative count of aborted epochs.
func (s *Service) Aborts() int64 { return s.totalAborts }

// liveJoin and liveLeave apply one committed membership edit to the
// pending delta sets in O(1). A client never joins and leaves within
// one epoch (validation rejects joiners that are live and leavers that
// are not), but across epochs without a materialization the pairs
// cancel: a leave of a pending add simply removes the add, and vice
// versa, so deltaAdd ∩ live = ∅ and deltaDel ⊆ live always hold.
func (s *Service) liveJoin(client int) {
	if _, ok := s.deltaDel[client]; ok {
		delete(s.deltaDel, client)
	} else {
		s.deltaAdd[client] = struct{}{}
	}
}

func (s *Service) liveLeave(client int) {
	if _, ok := s.deltaAdd[client]; ok {
		delete(s.deltaAdd, client)
	} else {
		s.deltaDel[client] = struct{}{}
	}
}

// materializeLive folds the pending membership deltas into the cached
// sorted view with a single merge: the adds are sorted (O(batch·log
// batch)), then merged with the previous view while entries in deltaDel
// are dropped (O(live)). The merge writes into the spare buffer, so
// steady state allocates nothing.
func (s *Service) materializeLive() {
	if len(s.deltaAdd) == 0 && len(s.deltaDel) == 0 {
		return
	}
	adds := s.addSort[:0]
	for c := range s.deltaAdd {
		adds = append(adds, c)
	}
	sort.Ints(adds)
	out := s.liveSpare[:0]
	i := 0
	for _, c := range adds {
		for i < len(s.live) && s.live[i] < c {
			if _, dead := s.deltaDel[s.live[i]]; !dead {
				out = append(out, s.live[i])
			}
			i++
		}
		out = append(out, c)
	}
	for ; i < len(s.live); i++ {
		if _, dead := s.deltaDel[s.live[i]]; !dead {
			out = append(out, s.live[i])
		}
	}
	s.addSort = adds
	s.liveSpare = s.live
	s.live = out
	clear(s.deltaAdd)
	clear(s.deltaDel)
}

// RunEpoch executes one epoch in four steps: validate the request
// stream, run the one-shot protocol over the join batch, decide whether
// the epoch commits, and only then apply it — release the leavers'
// names and map surviving ranks onto free-list pops. The one-shot run
// reads only the join batch, the epoch seed and the fault hook, so
// every abort reason is known before the first table write and an
// aborted epoch has nothing to undo. Request-stream errors (an unknown
// leaver, a duplicate or out-of-range joiner) are caller bugs and
// return an error with no state change; protocol-level failures abort
// the epoch instead.
func (s *Service) RunEpoch(joins []Client, leaves []int) (*EpochResult, error) {
	epoch := s.epoch
	res := &EpochResult{
		Epoch:           epoch,
		JoinsRequested:  len(joins),
		LeavesRequested: len(leaves),
		Unique:          true,
		AssumptionHolds: true,
	}
	if err := s.validateRequests(joins, leaves); err != nil {
		return nil, fmt.Errorf("service: epoch %d: %w", epoch, err)
	}
	s.epoch++

	// Survivors in rank order; rank order is pop order, so the i-th
	// ranked joiner receives the i-th oldest free name.
	survivors := s.rankedBuf[:0]
	if len(joins) > 0 {
		oneShot, err := s.runOneShot(epoch, joins)
		if err != nil {
			return nil, fmt.Errorf("service: epoch %d: %w", epoch, err)
		}
		res.Rounds = oneShot.Rounds
		res.Messages = oneShot.Messages
		res.Bits = oneShot.Bits
		res.HonestMessages = oneShot.HonestMessages
		res.HonestBits = oneShot.HonestBits
		res.Crashes = oneShot.Crashes
		res.Byzantine = oneShot.Byzantine
		res.CommitteeSize = oneShot.CommitteeSize
		res.Unique = oneShot.Unique
		res.AssumptionHolds = oneShot.AssumptionHolds
		res.RoundStats = oneShot.RoundStats
		for link, rank := range oneShot.NewIDByLink {
			if rank >= 1 {
				survivors = append(survivors, rankedJoin{link: link, rank: rank})
			}
		}
		sort.Slice(survivors, func(a, b int) bool { return survivors[a].rank < survivors[b].rank })
	}
	s.rankedBuf = survivors

	// Decide. The leavers' names count as free: the apply step releases
	// them before it pops, so an epoch may recycle the names it frees.
	free := s.free.Len() + len(leaves)
	// A run outside the committee assumption may fail to decide, so a
	// broken committee is named before the outcome it excuses.
	switch {
	case s.cfg.Core == CoreByzantine && !res.AssumptionHolds:
		res.AbortReason = "committee assumption broken"
	case !res.Unique:
		res.AbortReason = "one-shot run violated strong renaming"
	case len(survivors) > free:
		res.AbortReason = fmt.Sprintf("free list drained: %d survivors, %d free names", len(survivors), free)
	}
	if res.AbortReason != "" {
		s.totalAborts++
		res.Aborted = true
		s.fillPopulation(res)
		return res, nil
	}

	// Apply. Nothing below can fail on consistent tables, so an error
	// here is an internal bug, not an abort.
	if len(leaves) > 0 {
		res.Released = make([]Release, 0, len(leaves))
	}
	for _, client := range leaves {
		name := s.names[client]
		delete(s.names, client)
		s.liveLeave(client)
		if err := s.free.Push(name); err != nil {
			return nil, fmt.Errorf("service: epoch %d: internal error: %w", epoch, err)
		}
		res.Released = append(res.Released, Release{Client: client, Name: name})
	}
	if len(survivors) > 0 {
		res.Assignments = make([]Assignment, 0, len(survivors))
	}
	for _, sv := range survivors {
		name, ok := s.free.Pop()
		if !ok {
			return nil, fmt.Errorf("service: epoch %d: internal error: free list drained mid-commit", epoch)
		}
		client := joins[sv.link].ID
		if s.uses[name] > 0 {
			res.Recycled++
			s.totalRecycled++
		}
		s.uses[name]++
		s.names[client] = name
		s.liveJoin(client)
		res.Assignments = append(res.Assignments, Assignment{Client: client, Name: name, Rank: sv.rank})
	}
	res.Joined = len(survivors)
	res.FailedJoins = len(joins) - len(survivors)
	if len(s.names) > s.peakLive {
		s.peakLive = len(s.names)
	}
	s.fillPopulation(res)
	return res, nil
}

func (s *Service) fillPopulation(res *EpochResult) {
	res.Live = len(s.names)
	res.FreeNames = s.free.Len()
	res.PeakLive = s.peakLive
}

// validateRequests checks the epoch's request stream. The seen maps are
// epoch-stamped scratch: an entry marks its key as seen only while it
// holds the current stamp, so the maps are reused across epochs without
// clearing — zero allocation per epoch in steady state.
func (s *Service) validateRequests(joins []Client, leaves []int) error {
	s.valStamp++
	stamp := s.valStamp
	for _, c := range joins {
		if c.ID < 1 || c.ID > s.cfg.BigN {
			return fmt.Errorf("joiner %d outside [1, %d]", c.ID, s.cfg.BigN)
		}
		if s.seenJoin[c.ID] == stamp {
			return fmt.Errorf("duplicate joiner %d", c.ID)
		}
		s.seenJoin[c.ID] = stamp
		if _, live := s.names[c.ID]; live {
			return fmt.Errorf("joiner %d is already live", c.ID)
		}
	}
	for _, client := range leaves {
		if s.seenLeave[client] == stamp {
			return fmt.Errorf("duplicate leaver %d", client)
		}
		s.seenLeave[client] = stamp
		if _, live := s.names[client]; !live {
			return fmt.Errorf("leaver %d is not live", client)
		}
	}
	return nil
}

// runOneShot executes the configured core over the join batch on the
// service's pooled engine (worker goroutines and slab arenas persist
// across epochs). The joiners' original identities are the protocol's
// input identities, so the epoch's rank assignment inherits the core's
// guarantees verbatim.
func (s *Service) runOneShot(epoch int, joins []Client) (*renaming.Result, error) {
	k := len(joins)
	ids := s.idsBuf[:0]
	for _, c := range joins {
		ids = append(ids, c.ID)
	}
	s.idsBuf = ids
	seed := EpochSeed(s.cfg.Seed, epoch)
	var fault renaming.FaultSpec
	if s.cfg.FaultForEpoch != nil {
		fault = s.cfg.FaultForEpoch(epoch, k)
	}
	if s.cfg.Core == CoreByzantine {
		// The pool is the E5 pool, 20 candidates in expectation, resized
		// to the join batch.
		return s.session.RunByzantine(k, renaming.ByzSpec{
			N: s.cfg.BigN, IDs: ids, Seed: seed,
			PoolProb:      20.0 / float64(k),
			Fault:         fault,
			Profile:       s.cfg.Profile,
			EngineWorkers: s.cfg.EngineWorkers,
		})
	}
	return s.session.RunCrash(k, renaming.CrashSpec{
		N: s.cfg.BigN, IDs: ids, Seed: seed,
		CommitteeScale: s.cfg.CommitteeScale,
		Fault:          fault,
		Profile:        s.cfg.Profile,
		EngineWorkers:  s.cfg.EngineWorkers,
	})
}
