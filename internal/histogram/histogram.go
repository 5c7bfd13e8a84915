// Package histogram provides the bucket model shared by every histogram
// in this repository: static (Equi-Width/Equi-Depth/Compressed/
// V-Optimal/SADO/SSBM), dynamic (DC/DVO/DADO) and approximate (AC).
//
// A histogram is an ordered list of non-overlapping buckets. Each bucket
// covers the half-open value interval [Left, Right) and holds one or
// more sub-bucket counters over equal-width slices of that interval
// (paper §4: the DVO/DADO internal bucket structure; plain histograms
// use a single counter). Following the paper's uniform-distribution and
// continuous-value assumptions (§2.1), mass is spread uniformly within
// each sub-bucket, which makes the cumulative distribution piecewise
// linear.
//
// Integer convention: all the workloads in the paper draw integer
// attribute values. A bucket that covers the integer values a..b spans
// the real interval [a, b+1), so the mass attributed to value v is the
// density integral over [v, v+1).
package histogram

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInvalid reports a structurally invalid bucket list.
var ErrInvalid = errors.New("histogram: invalid bucket list")

// ErrValue reports a non-finite value passed to Insert/Delete/CDF.
var ErrValue = errors.New("histogram: non-finite value")

// Bucket is one histogram bucket: the half-open interval [Left, Right)
// with len(Subs) equal-width sub-bucket counters. Counts are float64
// because repartitioning and merging produce fractional counts.
type Bucket struct {
	Left  float64
	Right float64
	Subs  []float64
}

// NewBucket returns a bucket over [left, right) with k zeroed
// sub-buckets.
func NewBucket(left, right float64, k int) Bucket {
	return Bucket{Left: left, Right: right, Subs: make([]float64, k)}
}

// Count returns the total number of points in the bucket.
func (b *Bucket) Count() float64 {
	s := 0.0
	for _, c := range b.Subs {
		s += c
	}
	return s
}

// Width returns the value-range width of the bucket.
func (b *Bucket) Width() float64 { return b.Right - b.Left }

// Contains reports whether x falls inside [Left, Right).
func (b *Bucket) Contains(x float64) bool { return x >= b.Left && x < b.Right }

// SubIndex returns the index of the sub-bucket containing x. x must be
// inside the bucket.
func (b *Bucket) SubIndex(x float64) int {
	k := len(b.Subs)
	if k == 1 {
		return 0
	}
	i := int(float64(k) * (x - b.Left) / b.Width())
	if i < 0 {
		i = 0
	}
	if i >= k {
		i = k - 1
	}
	return i
}

// MassBelow returns the bucket mass in (-∞, x]: zero if x ≤ Left, the
// full count if x ≥ Right, linear interpolation through the sub-bucket
// densities otherwise.
func (b *Bucket) MassBelow(x float64) float64 {
	if x <= b.Left {
		return 0
	}
	if x >= b.Right {
		return b.Count()
	}
	k := len(b.Subs)
	subW := b.Width() / float64(k)
	mass := 0.0
	for i, c := range b.Subs {
		lo := b.Left + float64(i)*subW
		hi := lo + subW
		switch {
		case x >= hi:
			mass += c
		case x > lo:
			mass += c * (x - lo) / subW
		}
	}
	return mass
}

// Mass returns the bucket mass inside [lo, hi).
func (b *Bucket) Mass(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	return b.MassBelow(hi) - b.MassBelow(lo)
}

// Clone returns a deep copy of the bucket.
func (b *Bucket) Clone() Bucket {
	c := Bucket{Left: b.Left, Right: b.Right, Subs: make([]float64, len(b.Subs))}
	copy(c.Subs, b.Subs)
	return c
}

// Histogram is the behaviour every maintained histogram exposes. Static
// histograms implement it with no-op maintenance via *Piecewise.
type Histogram interface {
	// Insert adds one occurrence of the value.
	Insert(v float64) error
	// Delete removes one occurrence of the value.
	Delete(v float64) error
	// Total returns the current total point count.
	Total() float64
	// Buckets returns a copy of the current bucket list, sorted by Left.
	Buckets() []Bucket
	// CDF returns the approximate fraction of mass in (-∞, x].
	CDF(x float64) float64
	// EstimateRange returns the approximate number of points with
	// integer value in [lo, hi] (inclusive).
	EstimateRange(lo, hi float64) float64
}

// Validate checks that buckets are sorted, non-overlapping, have
// positive width, non-negative finite counts, and at least one
// sub-bucket each. Gaps between buckets are allowed (the DVO/DADO
// out-of-range borrow can create them).
func Validate(buckets []Bucket) error {
	for i := range buckets {
		b := &buckets[i]
		if len(b.Subs) == 0 {
			return fmt.Errorf("%w: bucket %d has no sub-buckets", ErrInvalid, i)
		}
		if !(b.Right > b.Left) || math.IsInf(b.Left, 0) || math.IsInf(b.Right, 0) ||
			math.IsNaN(b.Left) || math.IsNaN(b.Right) {
			return fmt.Errorf("%w: bucket %d has bad range [%v,%v)", ErrInvalid, i, b.Left, b.Right)
		}
		for j, c := range b.Subs {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < -1e-6 {
				return fmt.Errorf("%w: bucket %d sub %d count %v", ErrInvalid, i, j, c)
			}
		}
		if i > 0 && b.Left < buckets[i-1].Right-1e-9 {
			return fmt.Errorf("%w: bucket %d overlaps predecessor", ErrInvalid, i)
		}
	}
	return nil
}

// TotalCount sums the counts of all buckets.
func TotalCount(buckets []Bucket) float64 {
	s := 0.0
	for i := range buckets {
		s += buckets[i].Count()
	}
	return s
}

// FindBucket returns the index of the bucket containing x, or -1 if x
// lies outside every bucket (before the first, after the last, or in a
// gap). buckets must be sorted by Left.
func FindBucket(buckets []Bucket, x float64) int {
	i := sort.Search(len(buckets), func(j int) bool { return buckets[j].Right > x })
	if i < len(buckets) && buckets[i].Contains(x) {
		return i
	}
	return -1
}

// NearestBucket returns the index of the bucket whose range is closest
// to x (the containing bucket if any), or -1 for an empty list.
func NearestBucket(buckets []Bucket, x float64) int {
	if i := FindBucket(buckets, x); i >= 0 {
		return i
	}
	return Nearest(BucketList(buckets), x)
}

// MassBelow returns the total mass of the bucket list in (-∞, x].
func MassBelow(buckets []Bucket, x float64) float64 {
	mass := 0.0
	for i := range buckets {
		if buckets[i].Right <= x {
			mass += buckets[i].Count()
			continue
		}
		if buckets[i].Left >= x {
			break
		}
		mass += buckets[i].MassBelow(x)
	}
	return mass
}

// CheckFinite validates a user-supplied value.
func CheckFinite(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %v", ErrValue, v)
	}
	return nil
}
