// Package trace records per-round communication summaries of an
// execution, for debugging protocol schedules, for the examples'
// narrative output, and for the experiment runner's traffic profiles.
// A Recorder retains one RoundSummary per round, fed through
// sim.WithRoundDigest: its footprint is O(rounds · kinds), never a
// per-message or per-node structure, so it is the right shape for the
// million-node sweeps too (see docs/MEMORY.md).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"renaming/internal/sim"
	"renaming/internal/stats"
)

// RoundSummary aggregates one round's sent-on-the-wire traffic: every
// message a sender paid for this round, including messages addressed to
// already-crashed recipients (the recipient being dead does not refund
// the sender's communication cost).
type RoundSummary struct {
	Round    int
	Messages int
	Bits     int
	ByKind   map[string]int
}

// Recorder accumulates round summaries. Every executed round produces
// one summary — fully quiet rounds (no traffic) included — so a
// recording's round count always equals the network's round count.
type Recorder struct {
	rounds []RoundSummary
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// ObserveDigest is the sim.WithRoundDigest callback: it materializes the
// round's RoundSummary, copying the digest's per-kind counts (the engine
// reuses that map between rounds).
func (r *Recorder) ObserveDigest(d sim.RoundDigest) {
	summary := RoundSummary{Round: d.Round, Messages: int(d.Messages), Bits: int(d.Bits), ByKind: make(map[string]int, len(d.PerKind))}
	for k, v := range d.PerKind {
		summary.ByKind[k] = int(v)
	}
	r.rounds = append(r.rounds, summary)
}

// Rounds returns the recorded summaries in round order.
func (r *Recorder) Rounds() []RoundSummary {
	out := make([]RoundSummary, len(r.rounds))
	copy(out, r.rounds)
	return out
}

// BusiestRound returns the round with the most messages, or ok=false when
// nothing was recorded.
func (r *Recorder) BusiestRound() (RoundSummary, bool) {
	if len(r.rounds) == 0 {
		return RoundSummary{}, false
	}
	best := r.rounds[0]
	for _, s := range r.rounds[1:] {
		if s.Messages > best.Messages {
			best = s
		}
	}
	return best, true
}

// Summary condenses a recording into the per-round traffic profile the
// experiment runner embeds in its telemetry records (it is
// renaming.RoundStats). The message statistics use sent-on-the-wire
// semantics, as documented on Recorder.
type Summary struct {
	// Rounds is the number of rounds the network executed, including
	// fully quiet rounds; it always equals the execution's round count.
	Rounds int `json:"rounds"`
	// BusiestRound and BusiestMessages locate the traffic peak.
	BusiestRound    int `json:"busiestRound"`
	BusiestMessages int `json:"busiestMessages"`
	// PeakBits is the largest per-round bit volume.
	PeakBits int `json:"peakBits"`
	// MeanMessages and StddevMessages describe the per-round message
	// distribution.
	MeanMessages   float64 `json:"meanMessages"`
	StddevMessages float64 `json:"stddevMessages"`
}

// Summary computes the recording's traffic profile.
func (r *Recorder) Summary() Summary {
	if len(r.rounds) == 0 {
		return Summary{}
	}
	msgs := make([]float64, len(r.rounds))
	out := Summary{Rounds: len(r.rounds), BusiestRound: r.rounds[0].Round}
	for i, s := range r.rounds {
		msgs[i] = float64(s.Messages)
		if s.Messages > out.BusiestMessages {
			out.BusiestMessages = s.Messages
			out.BusiestRound = s.Round
		}
		if s.Bits > out.PeakBits {
			out.PeakBits = s.Bits
		}
	}
	sum := stats.Summarize(msgs)
	out.MeanMessages = sum.Mean
	out.StddevMessages = sum.Stddev
	return out
}

// WriteTimeline renders a compact per-round table to w, eliding quiet
// stretches of identical traffic shape.
func (r *Recorder) WriteTimeline(w io.Writer) error {
	var lastShape string
	elided := 0
	flush := func() error {
		if elided > 0 {
			if _, err := fmt.Fprintf(w, "  … %d more rounds with the same shape\n", elided); err != nil {
				return err
			}
			elided = 0
		}
		return nil
	}
	for _, s := range r.rounds {
		shape := shapeOf(s)
		if shape == lastShape {
			elided++
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		lastShape = shape
		if _, err := fmt.Fprintf(w, "round %4d: %6d msgs %8d bits  %s\n",
			s.Round, s.Messages, s.Bits, shape); err != nil {
			return err
		}
	}
	return flush()
}

func shapeOf(s RoundSummary) string {
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s×%d", k, s.ByKind[k]))
	}
	if len(parts) == 0 {
		return "(quiet)"
	}
	return strings.Join(parts, " ")
}

// WriteCSV dumps the per-round summaries as CSV (round, messages, bits,
// then one column per payload kind seen anywhere in the trace) for
// external plotting.
func (r *Recorder) WriteCSV(w io.Writer) error {
	kindSet := make(map[string]bool)
	for _, s := range r.rounds {
		for k := range s.ByKind {
			kindSet[k] = true
		}
	}
	kinds := make([]string, 0, len(kindSet))
	for k := range kindSet {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)

	header := append([]string{"round", "messages", "bits"}, kinds...)
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, s := range r.rounds {
		row := make([]string, 0, len(header))
		row = append(row, fmt.Sprint(s.Round), fmt.Sprint(s.Messages), fmt.Sprint(s.Bits))
		for _, k := range kinds {
			row = append(row, fmt.Sprint(s.ByKind[k]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
