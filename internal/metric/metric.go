// Package metric implements the histogram quality metrics of paper
// §6.2: the Kolmogorov-Smirnov statistic (the paper's primary metric),
// the chi-square statistic over value bins, and the average relative
// range-query error of Eq. (7). Only the statistics themselves are
// computed, never their significance — the paper compares algorithms by
// relative goodness-of-fit.
package metric

import (
	"errors"
	"math"

	"dynahist/internal/dist"
)

// ErrEmpty is returned when a metric is requested against an empty
// ground-truth distribution.
var ErrEmpty = errors.New("metric: empty ground-truth distribution")

// CDF is any cumulative distribution function; histogram CDFs satisfy
// it directly.
type CDF func(x float64) float64

// KS returns the Kolmogorov-Smirnov statistic between the approximate
// distribution given by approx and the exact distribution in truth:
//
//	D = max over x of |F_approx(x) − F_truth(x)|
//
// The exact CDF is a step function over the integer domain, so the
// supremum is attained at a step point, approached from the left or the
// right; the piecewise-linear histogram CDF is monotone between integer
// points. Evaluating both one-sided differences at every integer value
// therefore yields the exact supremum.
//
// Integer convention: the histogram attributes the mass of integer
// value v to the interval [v, v+1), so the histogram CDF is sampled at
// v+1 when compared against the exact "count of points ≤ v".
func KS(approx CDF, truth *dist.Tracker) (float64, error) {
	if truth.Total() == 0 {
		return 0, ErrEmpty
	}
	cum := truth.Cumulative()
	total := float64(truth.Total())
	d := 0.0
	prevExact := 0.0
	for v := 0; v < len(cum); v++ {
		exact := float64(cum[v]) / total
		a := approx(float64(v) + 1)
		// Right limit at the step: both CDFs include value v.
		if diff := math.Abs(a - exact); diff > d {
			d = diff
		}
		// Left limit: the exact CDF has not yet jumped.
		al := approx(float64(v))
		if diff := math.Abs(al - prevExact); diff > d {
			d = diff
		}
		prevExact = exact
	}
	return d, nil
}

// RangeQuery is one closed range predicate lo ≤ X ≤ hi over integer
// values.
type RangeQuery struct {
	Lo, Hi int
}

// AvgRelativeError returns the paper's Eq. (7) error metric over the
// given query set:
//
//	E = 100/Q · Σ_q |S_q − S'_q| / S_q
//
// where S_q is the exact result size and S'_q the estimate. Queries
// with S_q = 0 are skipped (the metric is undefined for them); if every
// query is skipped the function returns an error.
func AvgRelativeError(estimator func(lo, hi float64) float64, truth *dist.Tracker, queries []RangeQuery) (float64, error) {
	if truth.Total() == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	used := 0
	for _, q := range queries {
		exact := float64(truth.RangeCount(q.Lo, q.Hi))
		if exact == 0 {
			continue
		}
		est := estimator(float64(q.Lo), float64(q.Hi))
		sum += math.Abs(est-exact) / exact
		used++
	}
	if used == 0 {
		return 0, errors.New("metric: no query had a non-empty exact answer")
	}
	return 100 * sum / float64(used), nil
}

// UniformQueries generates q closed range queries whose endpoints are
// spread deterministically over the domain: query i covers
// [i·step, i·step + width]. It provides the unbiased fixed query set the
// paper discusses when motivating KS over Eq. (7).
func UniformQueries(domain, q int) []RangeQuery {
	if q < 1 || domain < 0 {
		return nil
	}
	queries := make([]RangeQuery, 0, q)
	for i := range q {
		lo := i * (domain + 1) / q
		hi := lo + (domain+1)/4
		if hi > domain {
			hi = domain
		}
		queries = append(queries, RangeQuery{Lo: lo, Hi: hi})
	}
	return queries
}
