package dynahist

import (
	"errors"
	"fmt"
	"math"

	"dynahist/internal/dist"
	"dynahist/internal/histogram"
	"dynahist/internal/static"
)

// staticKinds maps every static-construction Kind onto the
// internal/static algorithm that builds it.
var staticKinds = map[Kind]static.Kind{
	KindEquiWidth:  static.KindEquiWidth,
	KindEquiDepth:  static.KindEquiDepth,
	KindCompressed: static.KindCompressed,
	KindVOptimal:   static.KindVOptimal,
	KindSADO:       static.KindSADO,
	KindSSBM:       static.KindSSBM,
}

// Static is an immutable-borders histogram produced by one of the
// static constructions (or restored from a serialized bucket list).
// Insert and Delete adjust counters without moving borders. It
// remembers which construction built it (KindOf reports it, and its
// Snapshot carries it), defaulting to the generic KindStatic when
// wrapped from an explicit bucket list.
type Static struct {
	inner *histogram.Piecewise
	kind  Kind
	// rv is the cached read view; nil after any write. All reads go
	// through it, so repeated statistics pay the pin once.
	rv *View
}

// NewStaticFromBuckets wraps an explicit bucket list (for example one
// produced by UnmarshalBuckets or Superpose) as a histogram. The
// histogram keeps its own copy: later edits to buckets change nothing.
func NewStaticFromBuckets(buckets []Bucket) (*Static, error) {
	p, err := histogram.NewPiecewise(toInternal(buckets))
	if err != nil {
		return nil, err
	}
	return &Static{inner: p, kind: KindStatic}, nil
}

func trackerOf(values []int) (*dist.Tracker, error) {
	if len(values) == 0 {
		return nil, errors.New("dynahist: no values")
	}
	maxV := 0
	for _, v := range values {
		if v < 0 {
			return nil, fmt.Errorf("dynahist: negative value %d", v)
		}
		if v > maxV {
			maxV = v
		}
	}
	tr := dist.New(maxV)
	for _, v := range values {
		if err := tr.Insert(v); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// Insert adds one occurrence of v to the containing (or nearest)
// bucket without moving borders.
func (h *Static) Insert(v float64) error { h.rv = nil; return h.inner.Insert(v) }

// Delete removes one occurrence of v.
func (h *Static) Delete(v float64) error { h.rv = nil; return h.inner.Delete(v) }

// Total returns the number of points currently summarised.
func (h *Static) Total() float64 { return h.inner.Total() }

// View pins the current state as an immutable snapshot; see Estimator.
// The pin copies nothing: the view shares the bucket list, and the next
// Insert or Delete writes to a fresh copy of it.
func (h *Static) View() (*View, error) {
	if h.rv == nil {
		h.rv = &View{v: h.inner.View()}
	}
	return h.rv, nil
}

// Quantile returns the smallest x with CDF(x) ≥ q, q in (0, 1].
func (h *Static) Quantile(q float64) (float64, error) { return quantileOf(h, q) }

// CDF returns the approximate fraction of points ≤ x.
func (h *Static) CDF(x float64) float64 { return readView(h).CDF(x) }

// EstimateRange returns the approximate number of points with integer
// value in [lo, hi] inclusive.
func (h *Static) EstimateRange(lo, hi float64) float64 { return readView(h).EstimateRange(lo, hi) }

// Buckets returns a copy of the bucket list, straight off the
// maintained state (see Dynamic.Buckets).
func (h *Static) Buckets() []Bucket { return toPublic(h.inner.Buckets()) }

// NumBuckets returns the number of buckets.
func (h *Static) NumBuckets() int { return h.inner.NumBuckets() }

// KS returns the Kolmogorov–Smirnov distance between the histogram and
// the exact distribution of the given values — the paper's quality
// metric (§6.2). It is exported so applications can measure how well a
// summary tracks a known data set.
func KS(h Histogram, values []int) (float64, error) {
	tr, err := trackerOf(values)
	if err != nil {
		return 0, err
	}
	cum := tr.Cumulative()
	total := float64(tr.Total())
	d := 0.0
	prev := 0.0
	for v := 0; v < len(cum); v++ {
		exact := float64(cum[v]) / total
		if diff := math.Abs(h.CDF(float64(v)+1) - exact); diff > d {
			d = diff
		}
		if diff := math.Abs(h.CDF(float64(v)) - prev); diff > d {
			d = diff
		}
		prev = exact
	}
	return d, nil
}
