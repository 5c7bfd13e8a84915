package static

import (
	"dynahist/internal/dist"
	"dynahist/internal/histogram"
	"dynahist/internal/union"
)

// SSBM builds the Successive Similar Bucket Merge histogram (paper §5):
// load every distinct value into its own bucket, then repeatedly merge
// the adjacent pair whose merged bucket has the smallest deviation V_M
// (Eq. 4) until n buckets remain.
//
// The merge pass is union.Reduce over the unit-width singletons
// [v, v+1), the same pass §8 runs on a superposed histogram. Over unit
// widths Reduce's per-bucket Σ len·density² is Σf², a group's width is
// the number m of integer values it spans, and its merged cost
// e2 − w·μ² is exactly Eq. 4's Σf² − m·μ². Zero-frequency values
// between populated ones add width but nothing to Σf², which is what
// makes merging across wide empty gaps expensive and keeps bucket
// borders at the edges of the populated regions.
//
// The paper quotes the cost as quadratic in the number of distinct
// values for the naive re-scan; Reduce reproduces the identical merge
// sequence with a lazy-deletion min-heap over adjacent pairs in
// O(D log D).
func SSBM(tr *dist.Tracker, n int) (*histogram.Piecewise, error) {
	values, counts, err := checkInput(tr, n)
	if err != nil {
		return nil, err
	}
	buckets, err := union.Reduce(singletons(values, counts), n)
	if err != nil {
		return nil, err
	}
	return histogram.NewPiecewise(buckets)
}

// SSBMMemory builds an SSBM histogram sized for a byte budget.
func SSBMMemory(tr *dist.Tracker, memBytes int) (*histogram.Piecewise, error) {
	n, err := histogram.BucketsForMemory(memBytes, 1)
	if err != nil {
		return nil, err
	}
	return SSBM(tr, n)
}
