// Package stats provides the small statistical toolkit the experiment
// harness uses to turn raw sweep measurements into the quantities the
// paper's asymptotic claims are about: least-squares fits on log-log
// scales (empirical growth exponents), summary statistics, and simple
// confidence heuristics.
package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// ErrTooFewPoints is returned when a fit needs more data.
var ErrTooFewPoints = errors.New("stats: need at least two points")

// Fit is a least-squares line y = Slope·x + Intercept with goodness R².
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits y = a·x + b by ordinary least squares.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return Fit{}, ErrTooFewPoints
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{}, errors.New("stats: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n

	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// PowerLawExponent fits y = c·x^α on positive data by regressing
// log y on log x and returns α (the empirical growth exponent) with R².
// A sweep of message counts against n with α ≈ 1 is quasi-linear growth,
// α ≈ 2 quadratic — exactly the separation E3n/E5n demonstrate.
func PowerLawExponent(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, errors.New("stats: length mismatch")
	}
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx = append(lx, math.Log(xs[i]))
		ly = append(ly, math.Log(ys[i]))
	}
	return LinearFit(lx, ly)
}

// Summary holds basic descriptive statistics.
type Summary struct {
	Count  int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes descriptive statistics of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		s.Stddev += (x - s.Mean) * (x - s.Mean)
	}
	if len(xs) > 1 {
		s.Stddev = math.Sqrt(s.Stddev / float64(len(xs)-1))
	} else {
		s.Stddev = 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Quantile returns the q-quantile of xs by the nearest-rank convention:
// the smallest element x such that at least ceil(q·len(xs)) elements are
// ≤ x. q is clamped to [0, 1]; q=0 yields the minimum, q=1 the maximum.
// Nearest-rank never interpolates, so a reported p99 is always a value
// that actually occurred — the right convention for tail envelopes,
// where an invented between-samples value would understate the worst
// observed execution. NaN on empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile over already-sorted data (the bootstrap
// resamples call it in a loop).
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// CI is a two-sided confidence interval for a statistic.
type CI struct {
	Lo, Hi float64
}

// BootstrapQuantileCI estimates a percentile-method confidence interval
// for the q-quantile of xs by seeded nonparametric bootstrap: resamples
// draws of len(xs) with replacement, the q-quantile of each, and the
// (α/2, 1−α/2) quantiles of those estimates at confidence conf (e.g.
// 0.95). Deterministic in the seed. NaN bounds on empty input or
// resamples < 1.
func BootstrapQuantileCI(xs []float64, q, conf float64, resamples int, seed int64) CI {
	return bootstrapCI(xs, conf, resamples, seed, func(sorted []float64) float64 {
		return quantileSorted(sorted, q)
	})
}

// BootstrapMeanCI is BootstrapQuantileCI for the mean.
func BootstrapMeanCI(xs []float64, conf float64, resamples int, seed int64) CI {
	return bootstrapCI(xs, conf, resamples, seed, func(sorted []float64) float64 {
		sum := 0.0
		for _, x := range sorted {
			sum += x
		}
		return sum / float64(len(sorted))
	})
}

func bootstrapCI(xs []float64, conf float64, resamples int, seed int64,
	stat func(sorted []float64) float64) CI {
	if len(xs) == 0 || resamples < 1 {
		return CI{Lo: math.NaN(), Hi: math.NaN()}
	}
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	rng := rand.New(rand.NewSource(seed))
	estimates := make([]float64, resamples)
	resample := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range resample {
			resample[i] = xs[rng.Intn(len(xs))]
		}
		sort.Float64s(resample)
		estimates[r] = stat(resample)
	}
	sort.Float64s(estimates)
	alpha := (1 - conf) / 2
	return CI{
		Lo: quantileSorted(estimates, alpha),
		Hi: quantileSorted(estimates, 1-alpha),
	}
}
