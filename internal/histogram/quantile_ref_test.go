package histogram

// Quantile is the linear-walk reference the View's O(log n) quantile
// is checked against: the smallest x such that the bucket list's CDF
// at x is at least q, for q in (0, 1], linearly interpolated within a
// sub-bucket (uniform assumption). The bucket list must hold positive
// mass.
func Quantile(buckets []Bucket, q float64) (float64, error) {
	if err := checkQuantileArg(q); err != nil {
		return 0, err
	}
	total := TotalCount(buckets)
	if total <= 0 {
		return 0, errNoMass()
	}
	target := q * total
	eps := quantileEps(total)
	acc := 0.0
	for i := range buckets {
		b := &buckets[i]
		c := b.Count()
		if acc+c < target-eps {
			acc += c
			continue
		}
		return quantileInBucket(b, acc, target, eps), nil
	}
	return buckets[len(buckets)-1].Right, nil
}
