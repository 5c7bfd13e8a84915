package histogram

import (
	"math"
	"sort"
)

// View is an immutable, query-optimised snapshot of a bucket list —
// the one read plane every histogram in this repository answers
// statistics from. Pinning a view costs one O(n) pass (validation plus
// a prefix-sum table over the bucket counts); after that every
// statistic is answered lock-free off the pinned state, with CDF and
// Quantile running in O(log n) binary searches instead of the linear
// bucket walks of the pre-view read path.
//
// A View never mutates its bucket list, so constructors may hand it a
// list they promise not to touch again (NewView takes ownership) and
// several views or readers may safely alias one list.
type View struct {
	buckets []Bucket
	// prefix[i] is the total mass of buckets[0:i], accumulated in
	// bucket order with the same left-to-right additions MassBelow
	// performs, so view answers are bitwise identical to the linear
	// walks they replace. len(prefix) == len(buckets)+1.
	prefix []float64
	// total is the normalisation constant for CDF and Quantile — the
	// histogram's own live count when it tracks one (it can drift from
	// the bucket mass by float error), otherwise the bucket mass.
	total float64
}

// NewView validates the bucket list and wraps it as a View, taking
// ownership of the slice: the caller must not modify buckets (or any
// Subs slice inside it) afterwards. total is the point count CDF and
// Quantile normalise by; pass TotalCount(buckets) when no separately
// maintained count exists. An empty list is a valid (empty) view.
func NewView(buckets []Bucket, total float64) (*View, error) {
	if err := Validate(buckets); err != nil {
		return nil, err
	}
	return viewOwned(buckets, total), nil
}

// viewOwned is NewView for a list already known to be valid.
func viewOwned(buckets []Bucket, total float64) *View {
	prefix := make([]float64, len(buckets)+1)
	acc := 0.0
	for i := range buckets {
		acc += buckets[i].Count()
		prefix[i+1] = acc
	}
	return &View{buckets: buckets, prefix: prefix, total: total}
}

// ViewOfStore pins a snapshot of a flat bucket arena as a View. The
// store maintains the view invariants (sorted non-overlapping borders,
// running totals consistent with the rows) incrementally, so no O(n·K)
// re-validation runs, and the prefix-sum table is built straight off
// the store's running totals instead of re-summing every row. The
// bucket list is materialised once (flat, two allocations) so the view
// stays immutable while the source store keeps mutating.
func ViewOfStore(s *Store, total float64) *View {
	n := s.Len()
	prefix := make([]float64, n+1)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += s.Count(i)
		prefix[i+1] = acc
	}
	return &View{buckets: s.Buckets(), prefix: prefix, total: total}
}

// EmptyView returns the canonical zero-mass view: every statistic on
// it answers as an empty histogram does.
func EmptyView() *View {
	return &View{prefix: []float64{0}}
}

// Total returns the point count the view was pinned with.
func (v *View) Total() float64 { return v.total }

// Mass returns the total bucket mass of the pinned list (equal to
// Total up to float drift when the source histogram keeps a separate
// live counter).
func (v *View) Mass() float64 { return v.prefix[len(v.buckets)] }

// NumBuckets returns the number of buckets.
func (v *View) NumBuckets() int { return len(v.buckets) }

// Buckets returns a deep copy of the pinned bucket list.
func (v *View) Buckets() []Bucket { return CloneBuckets(v.buckets) }

// RawBuckets returns the pinned bucket list without copying, for
// callers that only convert or read it; it must not be modified.
func (v *View) RawBuckets() []Bucket { return v.buckets }

// MassBelow returns the pinned mass in (-∞, x] in O(log n): a binary
// search for the bucket whose right border exceeds x, the prefix sum
// of everything before it, and that bucket's own partial mass.
func (v *View) MassBelow(x float64) float64 {
	i := sort.Search(len(v.buckets), func(j int) bool { return v.buckets[j].Right > x })
	if i == len(v.buckets) {
		return v.prefix[i]
	}
	if x <= v.buckets[i].Left {
		return v.prefix[i]
	}
	return v.prefix[i] + v.buckets[i].MassBelow(x)
}

// CDF returns the approximate fraction of points ≤ x, 0 for an empty
// view.
func (v *View) CDF(x float64) float64 {
	if v.total <= 0 {
		return 0
	}
	return v.MassBelow(x) / v.total
}

// PDF returns the approximate probability density at x under the
// paper's uniform-within-sub-bucket assumption: the density of the
// sub-bucket containing x divided by the total count. It is 0 outside
// every bucket and on an empty view.
func (v *View) PDF(x float64) float64 {
	if v.total <= 0 || math.IsNaN(x) {
		return 0
	}
	i := FindBucket(v.buckets, x)
	if i < 0 {
		return 0
	}
	b := &v.buckets[i]
	subW := b.Width() / float64(len(b.Subs))
	return b.Subs[b.SubIndex(x)] / subW / v.total
}

// EstimateRange returns the approximate number of points with integer
// value in [lo, hi] inclusive (mass over [lo, hi+1) by the integer
// convention).
func (v *View) EstimateRange(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	return v.MassBelow(hi+1) - v.MassBelow(lo)
}

// Quantile returns the smallest x such that the pinned CDF at x is at
// least q, for q in (0, 1], locating the target bucket by binary
// search over the prefix sums. The view must hold positive mass.
func (v *View) Quantile(q float64) (float64, error) {
	if err := checkQuantileArg(q); err != nil {
		return 0, err
	}
	if v.total <= 0 {
		return 0, errNoMass()
	}
	target := q * v.total
	eps := quantileEps(v.total)
	n := len(v.buckets)
	i := sort.Search(n, func(j int) bool { return v.prefix[j+1] >= target-eps })
	if i == n {
		// q·total exceeds the pinned bucket mass (the live counter can
		// sit a hair above it); the quantile saturates at the right edge.
		if n == 0 {
			return 0, errNoMass()
		}
		return v.buckets[n-1].Right, nil
	}
	return quantileInBucket(&v.buckets[i], v.prefix[i], target, eps), nil
}
