package dynahist

import (
	"dynahist/internal/approx"
	"dynahist/internal/histogram"
)

// AC is the Approximate Compressed histogram of Gibbons, Matias and
// Poosala (VLDB'97): a compressed histogram maintained from a reservoir
// "backing sample". It is the baseline the paper evaluates dynamic
// histograms against. It is not safe for concurrent use; wrap it with
// NewConcurrent if needed.
type AC struct {
	inner *approx.AC
	// rv is the cached read view; nil after any write (or a gamma
	// change, which swaps the maintenance mode's current histogram).
	rv *View
}

// ACDefaultDiskFactor is the default backing-sample budget relative to
// main memory (20×), following the AC authors' suggestion adopted by
// the paper.
const ACDefaultDiskFactor = approx.DefaultDiskFactor

// ACRecomputeAlways is the γ setting (−1) that recomputes the histogram
// from the backing sample at every update — the paper's configuration.
const ACRecomputeAlways = approx.RecomputeAlways

// Insert adds one occurrence of v.
func (h *AC) Insert(v float64) error { h.rv = nil; return h.inner.Insert(v) }

// Delete removes one occurrence of v (also evicting it from the
// backing sample when present; the sample is not refilled).
func (h *AC) Delete(v float64) error { h.rv = nil; return h.inner.Delete(v) }

// Total returns the number of points currently summarised.
func (h *AC) Total() float64 { return h.inner.Total() }

// View pins the current state as an immutable snapshot (triggering
// the lazy rebuild from the backing sample when one is pending); see
// Estimator. The view's Total is the rebuilt bucket mass — the count
// AC's own CDF normalises by — which can sit a scaling hair away from
// the live count Total() reports.
func (h *AC) View() (*View, error) {
	if h.rv == nil {
		bs := h.inner.Buckets()
		v, err := newViewOwned(bs, histogram.TotalCount(bs))
		if err != nil {
			return nil, err
		}
		h.rv = v
	}
	return h.rv, nil
}

// Quantile returns the smallest x with CDF(x) ≥ q, q in (0, 1].
func (h *AC) Quantile(q float64) (float64, error) { return quantileOf(h, q) }

// CDF returns the approximate fraction of points ≤ x.
func (h *AC) CDF(x float64) float64 { return readView(h).CDF(x) }

// EstimateRange returns the approximate number of points with integer
// value in [lo, hi] inclusive.
func (h *AC) EstimateRange(lo, hi float64) float64 { return readView(h).EstimateRange(lo, hi) }

// Buckets returns a copy of the current bucket list (possibly
// rebuilding from the backing sample first), straight off the
// maintained state (see Dynamic.Buckets).
func (h *AC) Buckets() []Bucket { return toPublic(h.inner.Buckets()) }

// SetGamma sets the maintenance threshold: ACRecomputeAlways (−1)
// recomputes per update; γ > 0 maintains incrementally with a
// recompute fallback.
func (h *AC) SetGamma(gamma float64) error { h.rv = nil; return h.inner.SetGamma(gamma) }

// SampleSize returns the current backing-sample size.
func (h *AC) SampleSize() int { return h.inner.SampleSize() }

// SampleCapacity returns the backing-sample capacity.
func (h *AC) SampleCapacity() int { return h.inner.SampleCapacity() }
