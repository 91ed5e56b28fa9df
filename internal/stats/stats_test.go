package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-9 || math.Abs(fit.Intercept-3) > 1e-9 {
		t.Fatalf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-9 {
		t.Fatalf("R² = %f", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected too-few-points error")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("expected degenerate error")
	}
}

func TestPowerLawExponent(t *testing.T) {
	var xs, ys []float64
	for _, n := range []float64{64, 128, 256, 512, 1024} {
		xs = append(xs, n)
		ys = append(ys, 7*n*n) // quadratic
	}
	fit, err := PowerLawExponent(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-6 {
		t.Fatalf("exponent = %f, want 2", fit.Slope)
	}
	// Zero/negative points are skipped, not fatal.
	fit, err = PowerLawExponent([]float64{0, 2, 4, 8}, []float64{1, 10, 20, 40})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-1) > 1e-6 {
		t.Fatalf("exponent = %f, want 1", fit.Slope)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Median != 2.5 {
		t.Fatalf("summary = %+v", s)
	}
	odd := Summarize([]float64{9, 1, 5})
	if odd.Median != 5 {
		t.Fatalf("median = %f", odd.Median)
	}
	if got := Summarize(nil); got.Count != 0 {
		t.Fatalf("empty = %+v", got)
	}
	one := Summarize([]float64{7})
	if one.Stddev != 0 {
		t.Fatalf("single-point stddev = %f", one.Stddev)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{40, 10, 20, 30} // sorted: 10 20 30 40
	cases := []struct {
		name string
		q    float64
		want float64
	}{
		{"min", 0, 10},
		{"below-min-clamped", -0.5, 10},
		{"p25-rank1", 0.25, 10},
		{"p50-rank2", 0.5, 20},
		{"p51-rank3", 0.51, 30},
		{"p75-rank3", 0.75, 30},
		{"p99-rank4", 0.99, 40},
		{"max", 1, 40},
		{"above-max-clamped", 1.5, 40},
	}
	for _, tc := range cases {
		if got := Quantile(xs, tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty input should be NaN")
	}
	// Nearest-rank never interpolates: every result is an element of xs.
	for q := 0.0; q <= 1.0; q += 0.01 {
		got := Quantile(xs, q)
		found := false
		for _, x := range xs {
			if got == x {
				found = true
			}
		}
		if !found {
			t.Fatalf("Quantile(%f) = %v not an element", q, got)
		}
	}
}

func TestBootstrapCIs(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	ci := BootstrapQuantileCI(xs, 0.5, 0.95, 400, 7)
	if ci.Lo > 99.5 || ci.Hi < 99.5 {
		t.Fatalf("median CI [%v, %v] excludes the true median 99.5", ci.Lo, ci.Hi)
	}
	if ci.Lo < 0 || ci.Hi > 199 {
		t.Fatalf("CI [%v, %v] outside data range", ci.Lo, ci.Hi)
	}
	mean := BootstrapMeanCI(xs, 0.95, 400, 7)
	if mean.Lo > 99.5 || mean.Hi < 99.5 {
		t.Fatalf("mean CI [%v, %v] excludes the true mean 99.5", mean.Lo, mean.Hi)
	}
	// Deterministic in the seed; different seeds resample differently.
	again := BootstrapQuantileCI(xs, 0.5, 0.95, 400, 7)
	if ci != again {
		t.Fatalf("same seed gave %v then %v", ci, again)
	}
	other := BootstrapQuantileCI(xs, 0.5, 0.95, 400, 8)
	if ci == other {
		t.Fatal("different seeds gave identical CIs (suspicious)")
	}
	empty := BootstrapQuantileCI(nil, 0.5, 0.95, 100, 1)
	if !math.IsNaN(empty.Lo) || !math.IsNaN(empty.Hi) {
		t.Fatalf("empty input CI = %v, want NaNs", empty)
	}
}

// TestQuickFitRecoversLine: LinearFit recovers arbitrary lines exactly on
// noise-free data.
func TestQuickFitRecoversLine(t *testing.T) {
	prop := func(slopeRaw, interceptRaw int16) bool {
		slope := float64(slopeRaw) / 64
		intercept := float64(interceptRaw) / 64
		xs := []float64{-3, -1, 0, 2, 5, 11}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = slope*x + intercept
		}
		fit, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(fit.Slope-slope) < 1e-6 && math.Abs(fit.Intercept-intercept) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
