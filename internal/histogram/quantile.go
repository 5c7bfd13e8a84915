package histogram

import (
	"fmt"
	"math"

	"dynahist/internal/histerr"
)

// quantileEps returns the tolerance used when matching the cumulative
// mass against the quantile target. It is relative to the total mass:
// an absolute epsilon either vanishes at large totals (at 1e15 points
// the old 1e-12 was below one ulp, so boundary targets tie-broke on
// rounding noise) or dominates at tiny fractional totals (merged and
// scaled histograms can hold e-13-sized counts, where 1e-12 swallowed
// whole buckets).
func quantileEps(total float64) float64 {
	return total * 1e-12
}

// checkQuantileArg validates q in (0, 1].
func checkQuantileArg(q float64) error {
	if math.IsNaN(q) || q <= 0 || q > 1 {
		return fmt.Errorf("histogram: quantile %v outside (0,1]", q)
	}
	return nil
}

// errNoMass is the empty-histogram quantile error.
func errNoMass() error {
	return fmt.Errorf("histogram: %w: no mass to take a quantile of", histerr.ErrEmpty)
}

// quantileInBucket walks the sub-buckets of b for the smallest x whose
// cumulative mass (starting from acc, the mass before b) reaches
// target, linearly interpolating within the matching sub-bucket
// (uniform assumption).
func quantileInBucket(b *Bucket, acc, target, eps float64) float64 {
	k := len(b.Subs)
	subW := b.Width() / float64(k)
	for s, sc := range b.Subs {
		if acc+sc < target-eps {
			acc += sc
			continue
		}
		lo := b.Left + float64(s)*subW
		if sc <= 0 {
			return lo
		}
		frac := (target - acc) / sc
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + frac*subW
	}
	return b.Right
}
