package runner

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// syntheticPoints builds n cheap deterministic points; calls counts
// actual executions (not resumed replays).
func syntheticPoints(n int, calls *atomic.Int64) []Point {
	points := make([]Point, n)
	for i := range points {
		i := i
		points[i] = Point{
			Experiment: "synthetic",
			Name:       fmt.Sprintf("p%d", i),
			Seed:       int64(100 + i),
			FixedSeed:  true,
			Params:     map[string]string{"i": fmt.Sprint(i)},
			Run: func(seed int64) (Metrics, error) {
				if calls != nil {
					calls.Add(1)
				}
				return Metrics{
					Rounds:   int(seed % 7),
					Messages: seed * 3,
					Unique:   true,
					Extra:    map[string]float64{"seed": float64(seed)},
				}, nil
			},
		}
	}
	return points
}

func runToJSONL(t *testing.T, points []Point, workers int) ([]Record, string) {
	t.Helper()
	var buf bytes.Buffer
	recs, err := Run(points, Options{
		Workers: workers,
		Sinks:   []Sink{&JSONLSink{W: &buf, OmitVolatile: true}},
	})
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	return recs, buf.String()
}

// TestDeterministicAcrossWorkers is the tentpole guarantee: the JSONL
// artifact (minus the volatile wall-clock/alloc fields) is byte-identical
// at -workers=1 and -workers=8.
func TestDeterministicAcrossWorkers(t *testing.T) {
	points := syntheticPoints(37, nil)
	_, serial := runToJSONL(t, points, 1)
	_, pooled := runToJSONL(t, points, 8)
	if serial != pooled {
		t.Fatalf("JSONL artifact differs between workers=1 and workers=8:\n-- serial --\n%s\n-- pooled --\n%s", serial, pooled)
	}
	if got := strings.Count(serial, "\n"); got != len(points) {
		t.Fatalf("artifact has %d lines, want %d", got, len(points))
	}
}

// TestDerivedSeeds: points without an explicit seed get one derived from
// the sweep seed and point index — stable across worker counts, distinct
// per point, and different under a different sweep seed.
func TestDerivedSeeds(t *testing.T) {
	mk := func() []Point {
		points := make([]Point, 9)
		for i := range points {
			points[i] = Point{
				Experiment: "derived", Name: fmt.Sprintf("p%d", i),
				Run: func(seed int64) (Metrics, error) {
					return Metrics{Messages: seed}, nil
				},
			}
		}
		return points
	}
	recs1, err := Run(mk(), Options{Workers: 1, SweepSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	recs8, err := Run(mk(), Options{Workers: 8, SweepSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Run(mk(), Options{Workers: 1, SweepSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for i := range recs1 {
		if recs1[i].Seed == 0 {
			t.Errorf("point %d: derived seed is zero", i)
		}
		if recs1[i].Seed != recs8[i].Seed {
			t.Errorf("point %d: seed %d at workers=1 vs %d at workers=8", i, recs1[i].Seed, recs8[i].Seed)
		}
		if recs1[i].Seed != recs1[i].Metrics.Messages {
			t.Errorf("point %d: Run saw seed %d, record says %d", i, recs1[i].Metrics.Messages, recs1[i].Seed)
		}
		if seen[recs1[i].Seed] {
			t.Errorf("point %d: duplicate derived seed %d", i, recs1[i].Seed)
		}
		seen[recs1[i].Seed] = true
		if recs1[i].Seed == other[i].Seed {
			t.Errorf("point %d: same seed under different sweep seeds", i)
		}
	}
}

// TestFixedSeedZero: FixedSeed passes an explicit zero seed through
// verbatim (experiments A1/A3 use canonical seed 0).
func TestFixedSeedZero(t *testing.T) {
	var got int64 = -1
	recs, err := Run([]Point{{
		Experiment: "fixed", Name: "zero", Seed: 0, FixedSeed: true,
		Run: func(seed int64) (Metrics, error) { got = seed; return Metrics{}, nil },
	}}, Options{Workers: 1, SweepSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 || recs[0].Seed != 0 {
		t.Fatalf("fixed zero seed not preserved: Run saw %d, record %d", got, recs[0].Seed)
	}
}

// TestResumeSkipsExactly: resuming from a partial artifact re-executes
// exactly the missing points and replays the rest with Resumed set.
func TestResumeSkipsExactly(t *testing.T) {
	var first atomic.Int64
	points := syntheticPoints(10, &first)
	var buf bytes.Buffer
	if _, err := Run(points, Options{Workers: 2, Sinks: []Sink{&JSONLSink{W: &buf}}}); err != nil {
		t.Fatal(err)
	}
	if first.Load() != 10 {
		t.Fatalf("first sweep executed %d points, want 10", first.Load())
	}

	// Keep an artifact holding only the even-index points.
	var partial bytes.Buffer
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if i%2 == 0 {
			partial.WriteString(line + "\n")
		}
	}
	art, err := LoadArtifact(&partial)
	if err != nil {
		t.Fatal(err)
	}
	if art.Len() != 5 {
		t.Fatalf("partial artifact holds %d points, want 5", art.Len())
	}

	var second atomic.Int64
	recs, err := Run(syntheticPoints(10, &second), Options{Workers: 2, Resume: art})
	if err != nil {
		t.Fatal(err)
	}
	if second.Load() != 5 {
		t.Fatalf("resume executed %d points, want exactly the 5 missing ones", second.Load())
	}
	for i, rec := range recs {
		wantResumed := i%2 == 0
		if rec.Resumed != wantResumed {
			t.Errorf("point %d: Resumed=%v, want %v", i, rec.Resumed, wantResumed)
		}
		if rec.Metrics.Messages != int64(100+i)*3 {
			t.Errorf("point %d: metrics not preserved across resume: %+v", i, rec.Metrics)
		}
	}
}

// TestResumeIgnoresMismatch: a changed seed or params invalidates the
// stored record, forcing re-execution.
func TestResumeIgnoresMismatch(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run(syntheticPoints(3, nil), Options{Workers: 1, Sinks: []Sink{&JSONLSink{W: &buf}}}); err != nil {
		t.Fatal(err)
	}
	art, err := LoadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	changed := syntheticPoints(3, &calls)
	changed[1].Seed = 999 // different seed → not the same point any more
	recs, err := Run(changed, Options{Workers: 1, Resume: art})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("resume after seed change executed %d points, want 1", calls.Load())
	}
	if recs[1].Resumed || !recs[0].Resumed || !recs[2].Resumed {
		t.Fatalf("wrong points resumed: %v %v %v", recs[0].Resumed, recs[1].Resumed, recs[2].Resumed)
	}
}

// TestErrorRecords: a failing point lands in its record's Err field (and
// Run still succeeds); LoadArtifact keeps errored records out of the
// resume set so they re-execute.
func TestErrorRecords(t *testing.T) {
	points := syntheticPoints(3, nil)
	points[1].Run = func(seed int64) (Metrics, error) {
		return Metrics{}, fmt.Errorf("boom")
	}
	var buf bytes.Buffer
	recs, err := Run(points, Options{Workers: 2, Sinks: []Sink{&JSONLSink{W: &buf}}})
	if err != nil {
		t.Fatalf("Run returned %v; point failures belong in records", err)
	}
	if recs[1].Err != "boom" || recs[0].Err != "" || recs[2].Err != "" {
		t.Fatalf("wrong Err placement: %+v", recs)
	}
	art, err := LoadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if art.Len() != 2 {
		t.Fatalf("artifact resume set holds %d records, want 2 (errored excluded)", art.Len())
	}
}

// TestLoadArtifactMalformed: garbage lines are an error, blank lines are
// not.
func TestLoadArtifactMalformed(t *testing.T) {
	if _, err := LoadArtifact(strings.NewReader("{\"experiment\":\"x\"}\n\nnot json\n")); err == nil {
		t.Fatal("malformed line did not error")
	}
	art, err := LoadArtifact(strings.NewReader("{\"experiment\":\"x\"}\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if art.Len() != 1 {
		t.Fatalf("got %d records, want 1", art.Len())
	}
}

// TestCSVSink: fixed header, one row per record, volatile columns
// positioned at the end.
func TestCSVSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	recs, err := Run(syntheticPoints(3, nil), Options{Workers: 1, Sinks: []Sink{sink}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header + 3 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "experiment,index,epoch,name,seed,params") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "synthetic,0,0,p0,100,i=0") {
		t.Fatalf("unexpected first row: %s", lines[1])
	}
	_ = recs
}

// TestProgressSink: emits one final summary line per sweep.
func TestProgressSink(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Run(syntheticPoints(4, nil), Options{Workers: 2, Sinks: []Sink{&ProgressSink{W: &buf}}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[synthetic] 4/4 points in ") {
		t.Fatalf("missing final progress line: %q", out)
	}
}

// TestGuaranteeBooleansAlwaysPresent: the guarantee booleans serialize
// even when false — a run that *violates* strong renaming must be
// distinguishable in the artifact from a run that never measured it.
func TestGuaranteeBooleansAlwaysPresent(t *testing.T) {
	points := []Point{{
		Experiment: "g", Name: "violating", Seed: 5, FixedSeed: true,
		Run: func(int64) (Metrics, error) { return Metrics{Rounds: 1}, nil },
	}}
	var buf bytes.Buffer
	if _, err := Run(points, Options{Workers: 1, Sinks: []Sink{&JSONLSink{W: &buf}}}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"unique":false`, `"orderPreserving":false`, `"assumptionHolds":false`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSONL record missing %s:\n%s", want, buf.String())
		}
	}
}

// failingSink accepts failAt writes, then fails every one after,
// signalling the first failure on onFail.
type failingSink struct {
	writes, failAt int
	onFail         chan struct{}
}

func (s *failingSink) Write(Record) error {
	s.writes++
	if s.writes > s.failAt {
		if s.onFail != nil {
			close(s.onFail)
			s.onFail = nil
		}
		return fmt.Errorf("disk full")
	}
	return nil
}

// TestSinkFailureStopsScheduling pins the sink-failure contract: once a
// sink write fails the artifact is broken, so the runner must stop
// scheduling new points (instead of silently burning through the rest of
// the sweep producing records nobody can persist) and the returned error
// must name how many records were flushed intact.
func TestSinkFailureStopsScheduling(t *testing.T) {
	const total, failAt = 30, 3
	sinkFailed := make(chan struct{})
	var calls atomic.Int64
	points := syntheticPoints(total, &calls)
	for i := failAt + 1; i < total; i++ {
		// Later points park until the sink has actually failed, so the
		// runner's reaction — not scheduling luck — decides how many run.
		inner := points[i].Run
		points[i].Run = func(seed int64) (Metrics, error) {
			<-sinkFailed
			return inner(seed)
		}
	}
	_, err := Run(points, Options{
		Workers: 1,
		Sinks:   []Sink{&failingSink{failAt: failAt, onFail: sinkFailed}},
	})
	if err == nil {
		t.Fatal("Run succeeded despite a failing sink")
	}
	if !strings.Contains(err.Error(), "sink failed after 3 records flushed") {
		t.Fatalf("error does not name the flushed-record count: %v", err)
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("error does not wrap the sink failure: %v", err)
	}
	// Writes fail from record 3 on. The single worker gets the next point
	// only after the previous one was flushed, so points 0..failAt run
	// and nothing after the failed flush starts.
	if got := calls.Load(); got != failAt+1 {
		t.Fatalf("executed %d of %d points, want exactly %d: scheduling must stop at the failed flush", got, total, failAt+1)
	}
}

// TestWorkersCapped: worker count never exceeds the point count, and
// Workers<=0 still executes everything.
func TestWorkersCapped(t *testing.T) {
	for _, workers := range []int{0, 1, 64} {
		var calls atomic.Int64
		recs, err := Run(syntheticPoints(5, &calls), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 5 || len(recs) != 5 {
			t.Fatalf("workers=%d: %d calls, %d records", workers, calls.Load(), len(recs))
		}
	}
	if recs, err := Run(nil, Options{}); err != nil || len(recs) != 0 {
		t.Fatalf("empty sweep: %v, %d records", err, len(recs))
	}
}
