// Package stats provides the small statistical toolkit used throughout the
// dependence-graph analyses: the standard normal distribution (the paper's
// Gaussian end-to-end delay model, Section 4.1), summary statistics for
// Monte-Carlo runs, and binomial confidence intervals used when comparing
// measured verification ratios against analytic authentication
// probabilities.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// NormalCDF returns Phi((x-mu)/sigma), the probability that a Gaussian
// random variable with mean mu and standard deviation sigma is <= x.
//
// This is the Pr{D_e2e <= d} of Equation (5) in the paper. sigma must be
// positive; a zero sigma degenerates to a step function at mu.
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x >= mu {
			return 1
		}
		return 0
	}
	return stdNormalCDF((x - mu) / sigma)
}

// stdNormalCDF returns Phi(z) for the standard normal distribution.
func stdNormalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// stdNormalQuantile returns z such that Phi(z) = p, for p in (0, 1).
// It uses bisection on the CDF, which is plenty accurate for the
// confidence-interval use in this repository.
func stdNormalQuantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("stats: quantile probability %v out of (0,1)", p)
	}
	lo, hi := -40.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if stdNormalCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased sample variance
	StdDev float64
	Min    float64
	Max    float64
}

// errEmptySample is returned when a summary or quantile of an empty sample
// is requested.
var errEmptySample = errors.New("stats: empty sample")

// Summarize computes descriptive statistics over xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, errEmptySample
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Var = ss / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Var)
	}
	return s, nil
}

// quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. xs is not modified.
func quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmptySample
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies inside the interval (inclusive).
func (iv Interval) Contains(x float64) bool {
	return x >= iv.Lo && x <= iv.Hi
}

// WilsonInterval returns the Wilson score confidence interval for a binomial
// proportion with successes out of trials at the given confidence level
// (e.g. 0.95). It is well behaved for proportions near 0 or 1, which is the
// common case for authentication probabilities.
func WilsonInterval(successes, trials int, confidence float64) (Interval, error) {
	if trials <= 0 {
		return Interval{}, fmt.Errorf("stats: wilson interval needs trials > 0, got %d", trials)
	}
	if successes < 0 || successes > trials {
		return Interval{}, fmt.Errorf("stats: successes %d out of [0,%d]", successes, trials)
	}
	if confidence <= 0 || confidence >= 1 {
		return Interval{}, fmt.Errorf("stats: confidence %v out of (0,1)", confidence)
	}
	z, err := stdNormalQuantile(1 - (1-confidence)/2)
	if err != nil {
		return Interval{}, err
	}
	n := float64(trials)
	phat := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n)) / denom
	iv := Interval{Lo: math.Max(0, center-half), Hi: math.Min(1, center+half)}
	// Guard against floating-point residue excluding the degenerate
	// proportions 0 and 1, for which the Wilson bound is exact.
	if successes == 0 {
		iv.Lo = 0
	}
	if successes == trials {
		iv.Hi = 1
	}
	return iv, nil
}
