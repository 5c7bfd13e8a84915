package dynahist

import "fmt"

// Range is one inclusive integer-value range query [Lo, Hi].
type Range struct {
	Lo, Hi float64
}

// QuerySpec names the statistics one batch evaluation answers — many
// questions, one pinned view. The zero spec still reports Total.
type QuerySpec struct {
	// Quantiles are the q arguments, each in (0, 1].
	Quantiles []float64
	// CDF are the x arguments of the CDF curve points.
	CDF []float64
	// PDF are the x arguments of the density points.
	PDF []float64
	// Ranges are the EstimateRange arguments.
	Ranges []Range
	// Buckets asks for the pinned bucket list itself.
	Buckets bool
}

// Summary is the result of a batch evaluation: every answer computed
// from one pinned view, so the statistics are mutually consistent —
// no write can land between the total and the quantiles it normalises.
type Summary struct {
	// Total is the pinned point count (always filled).
	Total float64
	// Quantiles, CDF, PDF and Ranges hold one answer per corresponding
	// QuerySpec argument, in order.
	Quantiles []float64
	CDF       []float64
	PDF       []float64
	Ranges    []float64
	// Buckets is the pinned bucket list when the spec asked for it.
	Buckets []Bucket
}

// Describe answers every statistic in the spec from this one pinned
// view. It errors (without a partial result) when a quantile argument
// is outside (0, 1] or quantiles are requested of an empty histogram;
// the other statistics are total functions.
func (v *View) Describe(spec QuerySpec) (*Summary, error) {
	sum := &Summary{Total: v.Total()}
	if len(spec.Quantiles) > 0 {
		qs, err := v.QuantileAll(spec.Quantiles)
		if err != nil {
			return nil, err
		}
		sum.Quantiles = qs
	}
	if len(spec.CDF) > 0 {
		sum.CDF = v.CDFAll(spec.CDF)
	}
	if len(spec.PDF) > 0 {
		sum.PDF = make([]float64, len(spec.PDF))
		for i, x := range spec.PDF {
			sum.PDF[i] = v.PDF(x)
		}
	}
	if len(spec.Ranges) > 0 {
		sum.Ranges = make([]float64, len(spec.Ranges))
		for i, r := range spec.Ranges {
			sum.Ranges[i] = v.EstimateRange(r.Lo, r.Hi)
		}
	}
	if spec.Buckets {
		sum.Buckets = v.Buckets()
	}
	return sum, nil
}

// QuantileAll answers one quantile per argument off the pinned view —
// each in O(log n), with no re-capture between them.
func (v *View) QuantileAll(qs []float64) ([]float64, error) {
	out := make([]float64, len(qs))
	for i, q := range qs {
		x, err := v.Quantile(q)
		if err != nil {
			return nil, fmt.Errorf("quantile %d of %d: %w", i+1, len(qs), err)
		}
		out[i] = x
	}
	return out, nil
}

// CDFAll answers one CDF point per argument off the pinned view.
func (v *View) CDFAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = v.CDF(x)
	}
	return out
}

// Describe pins one view of h and answers every statistic in the spec
// from it — the one-call form of View().Describe(spec) for callers
// that do not need to hold the pin.
func Describe(h Histogram, spec QuerySpec) (*Summary, error) {
	v, err := viewOf(h)
	if err != nil {
		return nil, err
	}
	return v.Describe(spec)
}
