package histogram

import (
	"math"
	"sort"
)

// Index is the read access to a sorted bucket list that the nearest
// bucket search and the §7.3 delete spill need. *Store satisfies it,
// and BucketList adapts a []Bucket.
type Index interface {
	Len() int
	Left(i int) float64
	Right(i int) float64
	Count(i int) float64
}

// BucketList adapts a bucket list to Index.
type BucketList []Bucket

func (b BucketList) Len() int            { return len(b) }
func (b BucketList) Left(i int) float64  { return b[i].Left }
func (b BucketList) Right(i int) float64 { return b[i].Right }
func (b BucketList) Count(i int) float64 { return b[i].Count() }

// spillTolerance absorbs the rounding drift between a summary's exact
// point count and its floating-point bucket mass.
const spillTolerance = 1e-6

// distanceTo returns how far v lies outside bucket i (0 inside it).
func distanceTo(ix Index, i int, v float64) float64 {
	switch {
	case v < ix.Left(i):
		return ix.Left(i) - v
	case v >= ix.Right(i):
		return v - ix.Right(i)
	}
	return 0
}

// Nearest returns the bucket whose range is closest to v, or -1 for
// an empty index.
func Nearest(ix Index, v float64) int { return nearestAbove(ix, v, math.Inf(-1)) }

// NearestPositive returns the bucket with count ≥ 1 nearest to v, or
// -1 if none exists: the target of the §7.3 delete spill.
func NearestPositive(ix Index, v float64) int { return nearestAbove(ix, v, 1) }

// nearestAbove returns the first bucket nearest to v among those with
// count ≥ minCount, or -1 if there is none.
func nearestAbove(ix Index, v, minCount float64) int {
	best, bestDist := -1, 0.0
	for i := 0; i < ix.Len(); i++ {
		if ix.Count(i) < minCount {
			continue
		}
		if d := distanceTo(ix, i, v); best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// SpreadDelete removes one point when no single bucket holds one.
// Splits, merges, repartitions and reductions leave fractional counts,
// so a summary holding one point or more can have every bucket below
// 1; the point is then taken from the buckets nearest v outward.
// take(i, amount) removes amount, at most bucket i's count, from
// bucket i. It reports false, changing nothing, when the whole mass is
// below one point.
func SpreadDelete(ix Index, v float64, take func(i int, amount float64)) bool {
	order := make([]int, 0, ix.Len())
	mass := 0.0
	for i := 0; i < ix.Len(); i++ {
		if c := ix.Count(i); c > 0 {
			order = append(order, i)
			mass += c
		}
	}
	if mass < 1-spillTolerance {
		return false
	}
	sort.SliceStable(order, func(a, b int) bool {
		return distanceTo(ix, order[a], v) < distanceTo(ix, order[b], v)
	})
	need := 1.0
	for _, i := range order {
		amount := min(ix.Count(i), need)
		take(i, amount)
		if need -= amount; need <= 0 {
			break
		}
	}
	return true
}
