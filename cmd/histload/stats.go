package main

import (
	"math"
	"slices"
)

// tailSamples is how many samples must lie beyond a percentile before
// it is reported.
const tailSamples = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it. Failed requests enter as +Inf.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[max(rank(p, len(sorted)), 1)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The small slack keeps float error in p·n/100 (99.9% of 10000
// is 9990.000000000002) from pushing the rank up by one.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// topPercentile returns the highest of 99.9, 99, 90 and 50 that has at
// least tailSamples samples beyond it among n, or 0 when none has.
func topPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if n-rank(p, n) >= tailSamples {
			return p
		}
	}
	return 0
}

// latency summarises one latency sample set.
type latency struct {
	n        int
	p50, p99 float64
	// top is the highest percentile the sample supports (topPercentile)
	// and topValue its value.
	top, topValue float64
}

func summarize(samples []float64) latency {
	s := slices.Clone(samples)
	slices.Sort(s)
	l := latency{n: len(s), p50: percentile(s, 50), p99: percentile(s, 99), top: topPercentile(len(s))}
	if l.top > 0 {
		l.topValue = percentile(s, l.top)
	}
	return l
}

// chunkedPercentile splits xs, in completion order, into consecutive
// chunks of at least minChunk samples and returns the median of the
// chunks' p-th percentiles, and the number of chunks. With minChunk at
// 1000 each chunk's p99 has ten samples beyond it; a stall from outside
// the benchmark spoils one chunk, not the median. Fewer than 2·minChunk
// samples make one chunk: the plain percentile.
func chunkedPercentile(xs []float64, p float64, minChunk int) (float64, int) {
	k := max(len(xs)/minChunk, 1)
	per := make([]float64, k)
	for i := range per {
		chunk := slices.Clone(xs[i*len(xs)/k : (i+1)*len(xs)/k])
		slices.Sort(chunk)
		per[i] = percentile(chunk, p)
	}
	return median(per), k
}

// quartiles returns the three cut points of xs into four groups the way
// Python's statistics.quantiles(xs, n=4) does (its default "exclusive"
// method); the middle one is the median. It needs two or more values;
// with one, all three are that value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle of xs, NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	_, m, _ := quartiles(xs)
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
