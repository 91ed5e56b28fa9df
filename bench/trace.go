package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"renaming/internal/bitvec"
	"renaming/internal/consensus"
	"renaming/internal/core"
	"renaming/internal/hashing"
	"renaming/internal/sim"
)

// span is one layer call of a traced op. Times are nanoseconds since the
// tracer started; parent 0 marks a root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attrs  any    `json:"attrs,omitempty"`
}

// runAttrs annotate the root of a one-shot execution with its totals.
type runAttrs struct {
	Nodes  int   `json:"nodes"`
	Msgs   int64 `json:"msgs"`
	Bits   int64 `json:"bits"`
	Rounds int64 `json:"rounds"`
}

// roundAttrs annotate one sim.round span. Class is dense (at least one
// billed message per node), sparse (fewer) or idle (none); Phase is the
// crash schedule slot of core/crash.go (round mod 3), empty for the
// Byzantine protocol.
type roundAttrs struct {
	Round int    `json:"round"`
	Msgs  int64  `json:"msgs"`
	Bits  int64  `json:"bits"`
	Class string `json:"class"`
	Phase string `json:"phase,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span of the current op and returns its id.
func (tr *tracer) begin(parent int, name string) int {
	now := time.Since(tr.t0).Nanoseconds()
	tr.spans = append(tr.spans, span{Op: tr.op, ID: len(tr.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(tr.spans)
}

func (tr *tracer) end(id int) { tr.spans[id-1].End = time.Since(tr.t0).Nanoseconds() }

func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

var crashPhases = [3]string{"notify", "status", "committee"}

// crash is renaming.RunCrash split into its layers' public calls, under
// the span parent: config validation, node construction, network build,
// one span per round, close.
func (tr *tracer) crash(parent int, pool *sim.Pool, cfg core.CrashConfig, adv sim.CrashAdversary) (counts, error) {
	s := tr.begin(parent, "core.config")
	err := cfg.Validate()
	tr.end(s)
	if err != nil {
		return counts{}, err
	}
	s = tr.begin(parent, "core.nodes")
	nodes := make([]*core.CrashNode, len(cfg.IDs))
	simNodes := make([]sim.Node, len(cfg.IDs))
	for i := range nodes {
		nodes[i] = core.NewCrashNode(cfg, i)
		simNodes[i] = nodes[i]
	}
	tr.end(s)
	opts := []sim.Option{
		sim.WithCrashAdversary(adv),
		sim.WithPeek(func(i int) any { return nodes[i].Peek() }),
	}
	return tr.network(parent, pool, simNodes, opts, cfg.TotalRounds()+1, func(round int) string { return crashPhases[round%3] })
}

// byz is renaming.RunByzantine split the same way, with split-world
// attackers at the given links.
func (tr *tracer) byz(parent int, cfg core.ByzConfig, attackers []int) (counts, error) {
	s := tr.begin(parent, "core.config")
	err := cfg.Validate()
	if err == nil && len(attackers) > cfg.MaxByzantine() {
		err = fmt.Errorf("%d attackers exceed the bound %d", len(attackers), cfg.MaxByzantine())
	}
	if err == nil {
		cfg = cfg.Precompute()
	}
	tr.end(s)
	if err != nil {
		return counts{}, err
	}
	s = tr.begin(parent, "core.nodes")
	bad := make(map[int]bool, len(attackers))
	for _, l := range attackers {
		bad[l] = true
	}
	nodes := make([]sim.Node, len(cfg.IDs))
	for i := range nodes {
		if bad[i] {
			nodes[i] = core.NewByzAttacker(cfg, i, core.BehaviorSplitWorld)
		} else {
			nodes[i] = core.NewByzNode(cfg, i)
		}
	}
	tr.end(s)
	// The round ceiling RunByzantine uses: ~4·(f+1)·log N iterations of
	// two phase-king executions each (Lemma 3.10).
	n := len(cfg.IDs)
	perIter := consensus.ValidatorRounds + 2*consensus.RoundsFor(n) + consensus.ExchangeRounds + 2
	maxRounds := 3 + 2*perIter*(4*(len(attackers)+1)*(bitsFor(cfg.N-1)+1)+8)
	return tr.network(parent, nil, nodes, []sim.Option{sim.WithByzantine(attackers)}, maxRounds, func(int) string { return "" })
}

func bitsFor(v int) int {
	b := 0
	for ; v > 0; v >>= 1 {
		b++
	}
	return b
}

// network builds the engine and steps it round by round until every
// alive node halts, as Network.Run does.
func (tr *tracer) network(parent int, pool *sim.Pool, nodes []sim.Node, opts []sim.Option, maxRounds int, phase func(int) string) (counts, error) {
	s := tr.begin(parent, "sim.build")
	nw := pool.Acquire(nodes, opts...)
	tr.end(s)
	n := len(nodes)
	var prev counts
	for !halted(nw, nodes) {
		if nw.Round() >= maxRounds {
			nw.Close()
			return counts{}, sim.ErrRoundLimit
		}
		round := nw.Round()
		s := tr.begin(parent, "sim.round")
		nw.StepRound()
		tr.end(s)
		m := nw.Metrics()
		a := &roundAttrs{Round: round, Msgs: m.Messages - prev.Msgs, Bits: m.Bits - prev.Bits, Class: "idle", Phase: phase(round)}
		switch {
		case a.Msgs >= int64(n):
			a.Class = "dense"
		case a.Msgs > 0:
			a.Class = "sparse"
		}
		tr.spans[s-1].Attrs = a
		prev = counts{m.Messages, m.Bits, int64(m.Rounds)}
	}
	tr.spans[parent-1].Attrs = &runAttrs{Nodes: n, Msgs: prev.Msgs, Bits: prev.Bits, Rounds: prev.Rounds}
	s = tr.begin(parent, "sim.close")
	nw.Close()
	tr.end(s)
	return prev, nil
}

func halted(nw *sim.Network, nodes []sim.Node) bool {
	for i, node := range nodes {
		if nw.Alive(i) && !node.Halted() {
			return false
		}
	}
	return true
}

// layerMetrics derives the per-layer metrics from the untraced pass a
// (counts the system reported, allocation, runner concurrency) and the
// traced pass b with its spans. A layer the workload never reaches
// reports 0.
func layerMetrics(w workload, a, b []opRecord, tr *tracer, mem memDelta) map[string]float64 {
	ops := float64(len(a))
	us := make(map[string][]float64)
	var dense, sparse []float64
	var denseNs, denseMsgs, idle float64
	var phase [3][]float64
	for _, s := range tr.spans {
		d := float64(s.End-s.Start) / 1e3
		us[s.Name] = append(us[s.Name], d)
		ra, ok := s.Attrs.(*roundAttrs)
		if !ok {
			continue
		}
		switch ra.Class {
		case "dense":
			dense = append(dense, d)
			denseNs += d * 1e3
			denseMsgs += float64(ra.Msgs)
		case "sparse":
			sparse = append(sparse, d)
		default:
			idle++
		}
		for k, name := range crashPhases {
			if ra.Phase == name {
				phase[k] = append(phase[k], d)
			}
		}
	}

	// Service self time: an epoch's RunEpoch minus its one-shot replay.
	runEpoch := make(map[int]float64)
	var self []float64
	for _, s := range tr.spans {
		switch s.Name {
		case "service.run_epoch":
			runEpoch[s.Op] = float64(s.End-s.Start) / 1e6
		case "service.oneshot":
			self = append(self, runEpoch[s.Op]-float64(s.End-s.Start)/1e6)
		}
	}

	var elected, crashes, iterations, broken, joins, joined, failedJoins, recycled, aborted, violations, execMs float64
	for _, r := range a {
		elected += float64(r.elected)
		crashes += float64(r.crashes)
		iterations += float64(r.iterations)
		joins += float64(r.joins)
		joined += float64(r.joined)
		failedJoins += float64(r.failedJoins)
		recycled += float64(r.recycled)
		violations += float64(r.violations)
		execMs += r.execMs
		if r.assumptionBroken {
			broken++
		}
		if r.aborted {
			aborted++
		}
	}
	wall := column(a, func(r opRecord) float64 { return r.ms })
	cpu := column(a, func(r opRecord) float64 { return r.cpuMs })
	var idleShare float64
	if c, ok := w.(*campaignWorkload); ok {
		idleShare = 1 - execMs/(float64(c.workers())*sum(wall))
	}
	toMs := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x / 1e3
		}
		return out
	}

	return map[string]float64{
		"op.wall_ms_p50":                   quantile(wall, 0.5),
		"op.cpu_ms_p50":                    quantile(cpu, 0.5),
		"op.cpu_per_wall":                  sum(cpu) / sum(wall),
		"renaming.alloc_kb_per_op":         float64(mem.alloc) / 1024 / ops,
		"renaming.gc_per_op":               float64(mem.gcs) / ops,
		"core.config_ms":                   quantile(us["core.config"], 0.5) / 1e3,
		"core.nodes_ms":                    quantile(us["core.nodes"], 0.5) / 1e3,
		"core.crash.notify_us_p50":         quantile(phase[0], 0.5),
		"core.crash.notify_us_p99":         quantile(phase[0], 0.99),
		"core.crash.status_us_p50":         quantile(phase[1], 0.5),
		"core.crash.status_us_p99":         quantile(phase[1], 0.99),
		"core.crash.committee_us_p50":      quantile(phase[2], 0.5),
		"core.crash.committee_us_p99":      quantile(phase[2], 0.99),
		"core.crash.elected_per_op":        elected / ops,
		"core.crash.crashes_per_op":        crashes / ops,
		"core.byz.iterations_per_op":       iterations / ops,
		"core.byz.assumption_broken_share": broken / ops,
		"sim.build_us":                     quantile(us["sim.build"], 0.5),
		"sim.close_us":                     quantile(us["sim.close"], 0.5),
		"sim.dense_round_us_p50":           quantile(dense, 0.5),
		"sim.dense_round_us_p99":           quantile(dense, 0.99),
		"sim.dense_ns_per_msg":             ratio(denseNs, denseMsgs),
		"sim.sparse_round_us_p50":          quantile(sparse, 0.5),
		"sim.sparse_round_us_p99":          quantile(sparse, 0.99),
		"sim.dense_rounds_per_op":          float64(len(dense)) / ops,
		"sim.sparse_rounds_per_op":         float64(len(sparse)) / ops,
		"sim.idle_rounds_per_op":           idle / ops,
		"sim.msgs_per_dense_round":         ratio(denseMsgs, float64(len(dense))),
		"service.live_clients_us_p50":      quantile(us["service.live_clients"], 0.5),
		"service.next_epoch_us_p50":        quantile(us["service.next_epoch"], 0.5),
		"service.run_epoch_ms_p50":         quantile(toMs(us["service.run_epoch"]), 0.5),
		"service.run_epoch_ms_p99":         quantile(toMs(us["service.run_epoch"]), 0.99),
		"service.oneshot_ms_p50":           quantile(toMs(us["service.oneshot"]), 0.5),
		"service.self_ms_p50":              quantile(self, 0.5),
		"service.recycled_share":           ratio(recycled, joined),
		"service.failed_join_share":        ratio(failedJoins, joins),
		"service.aborted_share":            aborted / ops,
		"campaign.exec_ms_p50":             quantile(toMs(us["campaign.exec"]), 0.5),
		"campaign.exec_ms_p90":             quantile(toMs(us["campaign.exec"]), 0.9),
		"campaign.violations":              violations,
		"runner.idle_share":                idleShare,
		"bitvec.codec_ns_per_field":        codecNsPerField(),
		"hashing.sum_ns_per_word":          hashNsPerWord(),
		"trace.overhead_pct":               100 * (quantile(column(b, func(r opRecord) float64 { return r.ms }), 0.5)/quantile(wall, 0.5) - 1),
	}
}

// sink keeps the standalone loops' results live.
var sink uint64

// codecNsPerField times Writer.Append plus Reader.Take over fields
// shaped like a crash status at n = 2048, N = 16n: identity, two
// interval endpoints, and the d and p counters.
func codecNsPerField() float64 {
	widths := [...]int{16, 12, 12, 7, 7}
	const reps = 400000
	var scratch [2]uint64
	start := time.Now()
	for i := 0; i < reps; i++ {
		w := bitvec.NewWriter(scratch[:0])
		for k, width := range widths {
			w.Append(uint64(i+k)&(1<<width-1), width)
		}
		r := bitvec.NewReader(w.Words())
		for _, width := range widths {
			sink += r.Take(width)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps*len(widths))
}

// hashNsPerWord times Hasher.Sum over 1024 words, the segment
// fingerprint the Byzantine committee compares.
func hashNsPerWord() float64 {
	rng := rand.New(rand.NewSource(1))
	words := make([]uint64, 1024)
	for i := range words {
		words[i] = rng.Uint64()
	}
	h := hashing.NewHasher(rng.Uint64())
	const reps = 2000
	start := time.Now()
	for i := 0; i < reps; i++ {
		sink += uint64(h.Sum(words))
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps*len(words))
}
