package dynahist

import "dynahist/internal/core"

// EDDado is the equi-depth sub-division variant of DADO — the other §4
// design alternative the paper explored. Each bucket keeps an explicit
// interior split at its mass median instead of the geometric midpoint.
type EDDado struct {
	inner *core.EDDado
}

// NewEDDado returns an equi-depth-subdivision dynamic histogram.
func NewEDDado(kind DeviationKind, buckets int) (*EDDado, error) {
	h, err := core.NewEDDado(core.Deviation(kind), buckets)
	if err != nil {
		return nil, err
	}
	return &EDDado{inner: h}, nil
}

// NewEDDadoMemory sizes the histogram for a byte budget (20 bytes per
// bucket: left border, split position, and two counters).
func NewEDDadoMemory(kind DeviationKind, memBytes int) (*EDDado, error) {
	h, err := core.NewEDDadoMemory(core.Deviation(kind), memBytes)
	if err != nil {
		return nil, err
	}
	return &EDDado{inner: h}, nil
}

// Insert adds one occurrence of v.
func (h *EDDado) Insert(v float64) error { return h.inner.Insert(v) }

// Delete removes one occurrence of v.
func (h *EDDado) Delete(v float64) error { return h.inner.Delete(v) }

// Total returns the number of points currently summarised.
func (h *EDDado) Total() float64 { return h.inner.Total() }

// CDF returns the approximate fraction of points ≤ x.
func (h *EDDado) CDF(x float64) float64 { return h.inner.CDF(x) }

// EstimateRange returns the approximate number of points with integer
// value in [lo, hi] inclusive.
func (h *EDDado) EstimateRange(lo, hi float64) float64 { return h.inner.EstimateRange(lo, hi) }

// Buckets returns the state as ordinary buckets (each equi-depth
// bucket's two unequal halves appear as separate buckets).
func (h *EDDado) Buckets() []Bucket { return toPublic(h.inner.Buckets()) }

// View pins the current state as an immutable snapshot; see Estimator.
func (h *EDDado) View() (*View, error) {
	return newViewOwned(h.inner.Buckets(), h.inner.Total())
}

// Quantile returns the smallest x with CDF(x) ≥ q, q in (0, 1].
func (h *EDDado) Quantile(q float64) (float64, error) { return quantileOf(h, q) }

// MaxBuckets returns the bucket budget.
func (h *EDDado) MaxBuckets() int { return h.inner.MaxBuckets() }
