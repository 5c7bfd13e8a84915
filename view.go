package dynahist

import (
	"dynahist/internal/histogram"
)

// View is an immutable snapshot of a histogram's distribution — the
// package's one read plane. Pinning a view costs one consistent
// capture of the bucket state (one lock acquisition on Concurrent, one
// cached merged-union materialisation on Sharded, a plain copy on the
// single-threaded kinds); afterwards every statistic — Total, CDF,
// PDF, Quantile, EstimateRange, Buckets and the batch queries — is
// answered lock-free off the pinned state, with precomputed prefix
// sums making CDF and Quantile O(log n) in the bucket count.
//
// A View never changes: writes to the source histogram after the pin
// are invisible to it, which is exactly what a dashboard or optimizer
// wants when it asks many questions that must be mutually consistent.
// Pin a fresh view (a cheap cache hit when nothing was written) to see
// newer data. Views are safe for concurrent use by any number of
// readers.
type View struct {
	v *histogram.View
}

// emptyView is the fail-soft stand-in the convenience read methods
// fall back to if a view cannot be pinned (possible only for
// histograms whose state comes from outside this package).
var emptyView = &View{v: histogram.EmptyView()}

// newViewOwned wraps an internal bucket list the caller hands over
// (it must not be modified afterwards) together with the total the
// source histogram normalises its CDF by.
func newViewOwned(bs []histogram.Bucket, total float64) (*View, error) {
	iv, err := histogram.NewView(bs, total)
	if err != nil {
		return nil, err
	}
	return &View{v: iv}, nil
}

// newViewOfStore pins a view straight off a flat bucket arena — no
// re-validation, prefix sums off the running totals (see
// histogram.ViewOfStore).
func newViewOfStore(st *histogram.Store, total float64) *View {
	return &View{v: histogram.ViewOfStore(st, total)}
}

// Total returns the number of points the histogram summarised at pin
// time.
func (v *View) Total() float64 { return v.v.Total() }

// NumBuckets returns the number of buckets in the pinned state.
func (v *View) NumBuckets() int { return v.v.NumBuckets() }

// Buckets returns a copy of the pinned bucket list, sorted by Left.
func (v *View) Buckets() []Bucket { return toPublic(v.v.RawBuckets()) }

// CDF returns the approximate fraction of points ≤ x in O(log n).
func (v *View) CDF(x float64) float64 { return v.v.CDF(x) }

// PDF returns the approximate probability density at x under the
// paper's uniform-within-sub-bucket assumption; it is 0 outside every
// bucket.
func (v *View) PDF(x float64) float64 { return v.v.PDF(x) }

// Quantile returns the smallest x such that approximately a fraction
// q of the pinned points are ≤ x, for q in (0, 1], in O(log n). It
// errors with ErrEmptyHistogram when the view holds no mass.
func (v *View) Quantile(q float64) (float64, error) { return v.v.Quantile(q) }

// EstimateRange returns the approximate number of points with integer
// value in [lo, hi] inclusive.
func (v *View) EstimateRange(lo, hi float64) float64 { return v.v.EstimateRange(lo, hi) }

// Estimator is the read plane every public histogram in this package
// implements: the maintained Histogram behaviour plus pinned-snapshot
// reads. Code that answers statistical queries should accept an
// Estimator and pin one View per batch of related questions instead of
// paying the per-call capture (a lock, or a merged-union epoch check)
// once per statistic.
type Estimator interface {
	Histogram
	// View pins the current state as an immutable snapshot. On Sharded
	// it returns the merged-union build error directly; for the other
	// kinds it only fails when the bucket
	// state is structurally invalid, which package-built histograms
	// never are.
	View() (*View, error)
	// Quantile returns the smallest x with CDF(x) ≥ q, q in (0, 1] —
	// one pinned statistic, for callers that need just one. It errors
	// with ErrEmptyHistogram when the histogram holds no mass.
	Quantile(q float64) (float64, error)
}

// Every public histogram satisfies the read plane.
var (
	_ Estimator = (*Dynamic)(nil)
	_ Estimator = (*DC)(nil)
	_ Estimator = (*AC)(nil)
	_ Estimator = (*Static)(nil)
	_ Estimator = (*Concurrent)(nil)
	_ Estimator = (*Sharded)(nil)
	_ Estimator = (*EDDado)(nil)
)

// viewer is the View capability checked by the generic helpers.
type viewer interface {
	View() (*View, error)
}

// viewOf pins a view of any histogram: through its own View method
// when it has one (cached, consistent), and through a Buckets/Total
// capture otherwise.
func viewOf(h Histogram) (*View, error) {
	if e, ok := h.(viewer); ok {
		return e.View()
	}
	return newViewOwned(toInternal(h.Buckets()), h.Total())
}

// readView is the fail-soft pin behind the convenience read methods:
// a histogram whose state cannot be pinned (impossible for
// package-built ones) reads as empty.
func readView(h viewer) *View {
	v, err := h.View()
	if err != nil {
		return emptyView
	}
	return v
}

// quantileOf answers one quantile off a fresh pin.
func quantileOf(h viewer, q float64) (float64, error) {
	v, err := h.View()
	if err != nil {
		return 0, err
	}
	return v.Quantile(q)
}
