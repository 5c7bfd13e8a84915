package histogram

import (
	"fmt"

	"dynahist/internal/histerr"
)

// Piecewise is a read-mostly histogram over a fixed bucket list. Static
// constructors (Equi-Width, Equi-Depth, SC, SVO, SADO, SSBM) return
// their result as a Piecewise; it also backs the superposed histograms
// of the shared-nothing union (paper §8).
//
// Insert and Delete adjust the counter of the containing (or nearest)
// bucket without ever moving borders, which is exactly the "static
// histogram that is incrementally counted but never reorganised"
// behaviour the paper contrasts the dynamic histograms against.
type Piecewise struct {
	buckets []Bucket
	total   float64
	// pinned is set while a View aliases buckets: the next write then
	// works on a copy (copy-on-write), so the view never changes.
	pinned bool
}

// NewPiecewise validates a bucket list and wraps it, taking ownership:
// the caller must not modify buckets (or any Subs slice inside it)
// afterwards.
func NewPiecewise(buckets []Bucket) (*Piecewise, error) {
	if err := Validate(buckets); err != nil {
		return nil, err
	}
	return &Piecewise{buckets: buckets, total: TotalCount(buckets)}, nil
}

// View pins the current state without copying it: the view aliases the
// bucket list, and the next Insert or Delete clones the list before it
// writes. The list was validated when the histogram was built and
// writes only move counts between non-negative counters, so the pin
// does not validate it again.
func (p *Piecewise) View() *View {
	p.pinned = true
	return viewOwned(p.buckets, p.total)
}

// unpin gives the histogram a private copy of a list a View aliases.
func (p *Piecewise) unpin() {
	if p.pinned {
		p.buckets = CloneBuckets(p.buckets)
		p.pinned = false
	}
}

// CloneBuckets deep-copies a bucket list. The Subs slices of the copy
// share one flat backing array (two allocations regardless of bucket
// count), matching the arena layout of histogram.Store: cloned lists
// read with the same cache behaviour as the stores they came from.
// Each Subs slice is capacity-limited to its own row, so an append on
// one bucket can never bleed into its neighbour.
func CloneBuckets(buckets []Bucket) []Bucket {
	out := make([]Bucket, len(buckets))
	nSubs := 0
	for i := range buckets {
		nSubs += len(buckets[i].Subs)
	}
	flat := make([]float64, 0, nSubs)
	for i := range buckets {
		start := len(flat)
		flat = append(flat, buckets[i].Subs...)
		out[i] = Bucket{
			Left:  buckets[i].Left,
			Right: buckets[i].Right,
			Subs:  flat[start:len(flat):len(flat)],
		}
	}
	return out
}

// Total returns the total point count.
func (p *Piecewise) Total() float64 { return p.total }

// Buckets returns a deep copy of the bucket list.
func (p *Piecewise) Buckets() []Bucket { return CloneBuckets(p.buckets) }

// NumBuckets returns the number of buckets.
func (p *Piecewise) NumBuckets() int { return len(p.buckets) }

// CDF returns the fraction of mass in (-∞, x]. An empty histogram
// returns 0 everywhere.
func (p *Piecewise) CDF(x float64) float64 {
	if p.total <= 0 {
		return 0
	}
	return MassBelow(p.buckets, x) / p.total
}

// EstimateRange returns the approximate number of points with integer
// value in [lo, hi] inclusive (mass over [lo, hi+1) by the integer
// convention).
func (p *Piecewise) EstimateRange(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	return MassBelow(p.buckets, hi+1) - MassBelow(p.buckets, lo)
}

// Insert adds one occurrence of v to the containing bucket, or to the
// nearest bucket if v lies outside every bucket.
func (p *Piecewise) Insert(v float64) error {
	if err := CheckFinite(v); err != nil {
		return err
	}
	i := NearestBucket(p.buckets, v)
	if i < 0 {
		return fmt.Errorf("histogram: %w: insert into bucketless piecewise histogram", histerr.ErrEmpty)
	}
	p.unpin()
	b := &p.buckets[i]
	x := v
	if !b.Contains(x) {
		// Out of range: attribute to the nearest sub-bucket.
		if x < b.Left {
			x = b.Left
		} else {
			x = b.Right - 1e-9
		}
	}
	b.Subs[b.SubIndex(x)]++
	p.total++
	return nil
}

// Delete removes one occurrence of v, spilling to the nearest bucket
// with positive count when the containing sub-bucket is empty (the
// paper's §7.3 policy), and across the nearest buckets when no bucket
// holds a whole point (SpreadDelete).
func (p *Piecewise) Delete(v float64) error {
	if err := CheckFinite(v); err != nil {
		return err
	}
	if p.total <= 0 {
		return fmt.Errorf("histogram: %w: delete from empty histogram", histerr.ErrEmpty)
	}
	i := NearestBucket(p.buckets, v)
	if i < 0 {
		return fmt.Errorf("histogram: %w: delete from bucketless piecewise histogram", histerr.ErrEmpty)
	}
	p.unpin()
	if !p.decrementAt(i, v) {
		bs := BucketList(p.buckets)
		if j := NearestPositive(bs, v); j >= 0 {
			p.takeMass(j, 1)
		} else if !SpreadDelete(bs, v, p.takeMass) {
			return fmt.Errorf("histogram: %w: less than one point to delete", histerr.ErrEmpty)
		}
	}
	p.total--
	return nil
}

// decrementAt decrements the sub-bucket of bucket i containing v if it
// is positive; otherwise tries the other sub-buckets of the same
// bucket. Reports whether a decrement happened.
func (p *Piecewise) decrementAt(i int, v float64) bool {
	b := &p.buckets[i]
	x := v
	if !b.Contains(x) {
		if x < b.Left {
			x = b.Left
		} else {
			x = b.Right - 1e-9
		}
	}
	s := b.SubIndex(x)
	if b.Subs[s] >= 1 {
		b.Subs[s]--
		return true
	}
	for j := range b.Subs {
		if b.Subs[j] >= 1 {
			b.Subs[j]--
			return true
		}
	}
	// Fractional counters (from merged/static construction) may hold a
	// whole point collectively without any single counter reaching 1.
	if b.Count() >= 1 {
		p.takeMass(i, 1)
		return true
	}
	return false
}

// takeMass removes amount, at most its count, from bucket j, scaling
// its sub-buckets proportionally.
func (p *Piecewise) takeMass(j int, amount float64) {
	b := &p.buckets[j]
	c := b.Count()
	scale := (c - amount) / c
	for s := range b.Subs {
		b.Subs[s] *= scale
	}
}
