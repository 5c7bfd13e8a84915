package core

import (
	"sort"

	"dynahist/internal/histogram"
)

// spillTolerance absorbs the rounding drift between a core's exact
// point count and its floating-point bucket mass.
const spillTolerance = 1e-6

// distanceTo returns how far v lies outside bucket i (0 inside it).
func distanceTo(st *histogram.Store, i int, v float64) float64 {
	switch {
	case v < st.Left(i):
		return st.Left(i) - v
	case v >= st.Right(i):
		return v - st.Right(i)
	}
	return 0
}

// nearestPositive returns the bucket with count ≥ 1 nearest to v, or
// -1 if none exists: the target of the §7.3 delete spill.
func nearestPositive(st *histogram.Store, v float64) int {
	best, bestDist := -1, 0.0
	for i := 0; i < st.Len(); i++ {
		if st.Count(i) < 1 {
			continue
		}
		if d := distanceTo(st, i, v); best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// spreadDelete removes one point when no single bucket holds one.
// Splits, merges and repartitions leave fractional counts, so a
// summary holding one point or more can have every bucket below 1;
// the point is then taken from the buckets nearest v outward.
// take(i, amount) removes amount, at most bucket i's count, from
// bucket i. It reports false, changing nothing, when the whole mass is
// below one point.
func spreadDelete(st *histogram.Store, v float64, take func(i int, amount float64)) bool {
	order := make([]int, 0, st.Len())
	mass := 0.0
	for i := 0; i < st.Len(); i++ {
		if c := st.Count(i); c > 0 {
			order = append(order, i)
			mass += c
		}
	}
	if mass < 1-spillTolerance {
		return false
	}
	sort.SliceStable(order, func(a, b int) bool {
		return distanceTo(st, order[a], v) < distanceTo(st, order[b], v)
	})
	need := 1.0
	for _, i := range order {
		amount := min(st.Count(i), need)
		take(i, amount)
		if need -= amount; need <= 0 {
			break
		}
	}
	return true
}
