package dynahist

import (
	"dynahist/internal/core"
)

// DeviationKind selects the deviation measure driving the split-merge
// reorganisation of the DVO/DADO family.
type DeviationKind int

const (
	// Variance drives the Dynamic V-Optimal (DVO) histogram.
	Variance DeviationKind = iota
	// AbsDeviation drives the Dynamic Average-Deviation Optimal (DADO)
	// histogram — more robust to frequency outliers and the paper's
	// best performer.
	AbsDeviation
)

// Dynamic is the paper's split-merge histogram family: one maintenance
// machinery whose deviation measure makes it a DADO (absolute
// deviation) or a DVO (variance). Build one with New(KindDADO, …) or
// New(KindDVO, …); KindOf reports which variant an instance is. It is
// not safe for concurrent use; wrap it with NewConcurrent or shard it
// with NewSharded if needed.
type Dynamic struct {
	inner *core.DVO
	// rv is the cached read view; nil after any write.
	rv *View
}

// DADO names the Dynamic family under the paper's headline variant.
// Both variants share the one maintenance machinery, so this is an
// alias, not a distinct type.
type DADO = Dynamic

// DVO names the Dynamic family under its V-optimal variant. It exists
// so the variance-driven histogram is not advertised under the DADO
// name: a *DVO is the same type as a *DADO because the paper's two
// variants differ only in their deviation measure (inspect it with
// Kind, or compare KindOf against KindDVO).
type DVO = Dynamic

// Insert adds one occurrence of v.
func (h *Dynamic) Insert(v float64) error { h.rv = nil; return h.inner.Insert(v) }

// Delete removes one occurrence of v.
func (h *Dynamic) Delete(v float64) error { h.rv = nil; return h.inner.Delete(v) }

// Total returns the number of points currently summarised.
func (h *Dynamic) Total() float64 { return h.inner.Total() }

// View pins the current state as an immutable snapshot; see Estimator.
func (h *Dynamic) View() (*View, error) {
	if h.rv == nil {
		h.rv = newViewOfStore(h.inner.Store(), h.inner.Total())
	}
	return h.rv, nil
}

// Quantile returns the smallest x with CDF(x) ≥ q, q in (0, 1].
func (h *Dynamic) Quantile(q float64) (float64, error) { return quantileOf(h, q) }

// CDF returns the approximate fraction of points ≤ x.
func (h *Dynamic) CDF(x float64) float64 { return readView(h).CDF(x) }

// EstimateRange returns the approximate number of points with integer
// value in [lo, hi] inclusive.
func (h *Dynamic) EstimateRange(lo, hi float64) float64 { return readView(h).EstimateRange(lo, hi) }

// Buckets returns a copy of the current bucket list, straight off the
// maintained state (no view pin: a bucket copy needs no prefix sums,
// and the shard engine's merge path calls this per rebuild).
func (h *Dynamic) Buckets() []Bucket { return toPublic(h.inner.Buckets()) }

// MaxBuckets returns the bucket budget.
func (h *Dynamic) MaxBuckets() int { return h.inner.MaxBuckets() }

// Kind returns the deviation measure in use.
func (h *Dynamic) Kind() DeviationKind { return DeviationKind(h.inner.Kind()) }

// Reorganisations returns the number of split-merge pairs performed so
// far — a diagnostic for maintenance churn.
func (h *Dynamic) Reorganisations() int { return h.inner.Reorganisations() }

// TotalDeviation returns the quantity the split-merge machinery
// greedily minimises (Eq. 3 or Eq. 5 of the paper, depending on Kind).
func (h *Dynamic) TotalDeviation() float64 { return h.inner.TotalDeviation() }

// DC is a Dynamic Compressed histogram (paper §3): contiguous buckets,
// singular buckets for heavy values, and chi-square-triggered
// repartitioning. It is not safe for concurrent use; wrap it with
// NewConcurrent if needed.
type DC struct {
	inner *core.DC
	// rv is the cached read view; nil after any write.
	rv *View
}

// Insert adds one occurrence of v.
func (h *DC) Insert(v float64) error { h.rv = nil; return h.inner.Insert(v) }

// Delete removes one occurrence of v.
func (h *DC) Delete(v float64) error { h.rv = nil; return h.inner.Delete(v) }

// Total returns the number of points currently summarised.
func (h *DC) Total() float64 { return h.inner.Total() }

// View pins the current state as an immutable snapshot; see Estimator.
func (h *DC) View() (*View, error) {
	if h.rv == nil {
		h.rv = newViewOfStore(h.inner.Store(), h.inner.Total())
	}
	return h.rv, nil
}

// Quantile returns the smallest x with CDF(x) ≥ q, q in (0, 1].
func (h *DC) Quantile(q float64) (float64, error) { return quantileOf(h, q) }

// CDF returns the approximate fraction of points ≤ x.
func (h *DC) CDF(x float64) float64 { return readView(h).CDF(x) }

// EstimateRange returns the approximate number of points with integer
// value in [lo, hi] inclusive.
func (h *DC) EstimateRange(lo, hi float64) float64 { return readView(h).EstimateRange(lo, hi) }

// Buckets returns a copy of the current bucket list, straight off the
// maintained state (see Dynamic.Buckets).
func (h *DC) Buckets() []Bucket { return toPublic(h.inner.Buckets()) }

// MaxBuckets returns the bucket budget.
func (h *DC) MaxBuckets() int { return h.inner.MaxBuckets() }

// SetAlphaMin overrides the chi-square significance threshold in [0,1]
// (default 1e-6; 0 freezes the partition, 1 repartitions per insert).
func (h *DC) SetAlphaMin(alpha float64) error { return h.inner.SetAlphaMin(alpha) }

// Repartitions returns how many border relocations have occurred.
func (h *DC) Repartitions() int { return h.inner.Repartitions() }

// SetDamping toggles the futility floor on the repartition trigger
// (default on). The floor exists because on a large data set no
// integer-border partition passes the chi-square test, so the paper's
// undamped trigger would repartition on nearly every insertion; with
// the floor, DC retries only once the statistic has grown 25% past
// what the last repartition reached. Turn it off only to study the
// paper's undamped trigger.
func (h *DC) SetDamping(on bool) { h.inner.SetDamping(on) }

// SingularCount returns the number of singleton buckets currently
// devoted to heavy values.
func (h *DC) SingularCount() int { return h.inner.SingularCount() }
