// Package static implements the static histogram constructors the
// paper evaluates against: Equi-Width and Equi-Depth (the framework
// baselines of Appendix A), the Static Compressed (SC) histogram, the
// Static V-Optimal (SVO) histogram via dynamic programming, the Static
// Average-Deviation Optimal (SADO) histogram the paper introduces, and
// the Successive Similar Bucket Merge (SSBM) histogram of §5, the
// paper's second contribution.
//
// All constructors consume an exact distribution (a *dist.Tracker) and
// return an immutable *histogram.Piecewise. Buckets span [first,
// last+1) of the distinct values they group; value-free space between
// buckets is left as zero-density gaps, which a construction with full
// knowledge of the data can represent exactly.
package static

import (
	"errors"
	"fmt"
	"sort"

	"dynahist/internal/dist"
	"dynahist/internal/histogram"
)

// ErrEmpty is returned when building a histogram over an empty
// distribution.
var ErrEmpty = errors.New("static: empty distribution")

// ErrBuckets is returned for a non-positive bucket budget.
var ErrBuckets = errors.New("static: bucket budget < 1")

// Kind names a static histogram class, in the paper's terminology.
type Kind int

const (
	// KindEquiWidth is Equi-Sum(V,S): equal value ranges per bucket.
	KindEquiWidth Kind = iota
	// KindEquiDepth is Equi-Sum(V,F): equal counts per bucket.
	KindEquiDepth
	// KindCompressed is Compressed(V,F): heavy values in singleton
	// buckets, the rest equi-depth (SC).
	KindCompressed
	// KindVOptimal is V-Optimal(V,F) by exact dynamic programming (SVO).
	KindVOptimal
	// KindSADO is Average-Deviation Optimal(V,F) by exact dynamic
	// programming (SADO, introduced by the paper).
	KindSADO
	// KindSSBM is Successive Similar Bucket Merge (§5).
	KindSSBM
	// KindExact keeps one bucket per distinct value (no compression);
	// it is the loading state every construction starts from.
	KindExact
)

func (k Kind) String() string {
	switch k {
	case KindEquiWidth:
		return "equi-width"
	case KindEquiDepth:
		return "equi-depth"
	case KindCompressed:
		return "compressed"
	case KindVOptimal:
		return "v-optimal"
	case KindSADO:
		return "sado"
	case KindSSBM:
		return "ssbm"
	case KindExact:
		return "exact"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Build constructs a static histogram of the given kind with at most n
// buckets.
func Build(kind Kind, tr *dist.Tracker, n int) (*histogram.Piecewise, error) {
	switch kind {
	case KindEquiWidth:
		return EquiWidth(tr, n)
	case KindEquiDepth:
		return EquiDepth(tr, n)
	case KindCompressed:
		return Compressed(tr, n)
	case KindVOptimal:
		return VOptimal(tr, n)
	case KindSADO:
		return SADO(tr, n)
	case KindSSBM:
		return SSBM(tr, n)
	case KindExact:
		return Exact(tr)
	default:
		return nil, fmt.Errorf("static: unknown kind %d", int(kind))
	}
}

// BuildMemory constructs a static histogram sized for a byte budget
// using the paper's accounting (one border + one counter per bucket).
func BuildMemory(kind Kind, tr *dist.Tracker, memBytes int) (*histogram.Piecewise, error) {
	n, err := histogram.BucketsForMemory(memBytes, 1)
	if err != nil {
		return nil, err
	}
	return Build(kind, tr, n)
}

// checkInput validates the common constructor arguments and extracts
// the distinct values.
func checkInput(tr *dist.Tracker, n int) (values []int, counts []int64, err error) {
	if n < 1 {
		return nil, nil, ErrBuckets
	}
	if tr == nil || tr.Total() == 0 {
		return nil, nil, ErrEmpty
	}
	values, counts = tr.NonZero()
	return values, counts, nil
}

// Exact returns one bucket per distinct value — the lossless
// representation every other construction compresses.
func Exact(tr *dist.Tracker) (*histogram.Piecewise, error) {
	values, counts, err := checkInput(tr, 1)
	if err != nil {
		return nil, err
	}
	return histogram.NewPiecewise(singletons(values, counts))
}

// singletons returns one unit-width bucket [v, v+1) per distinct
// value: the loading state of Exact and SSBM. The counters are cut
// from one slab, so the list costs two allocations at any size.
func singletons(values []int, counts []int64) []histogram.Bucket {
	buckets := make([]histogram.Bucket, len(values))
	slab := make([]float64, len(values))
	for i, v := range values {
		slab[i] = float64(counts[i])
		buckets[i] = histogram.Bucket{Left: float64(v), Right: float64(v + 1), Subs: slab[i : i+1 : i+1]}
	}
	return buckets
}

// EquiWidth partitions the populated value range into n equal-width
// buckets (Equi-Sum(V,S)).
func EquiWidth(tr *dist.Tracker, n int) (*histogram.Piecewise, error) {
	values, _, err := checkInput(tr, n)
	if err != nil {
		return nil, err
	}
	lo := values[0]
	hi := values[len(values)-1] + 1
	width := float64(hi-lo) / float64(n)
	if width < 1 {
		width = 1
		n = hi - lo // fewer, unit-width buckets
	}
	buckets := make([]histogram.Bucket, 0, n)
	for b := range n {
		l := float64(lo) + float64(b)*width
		r := float64(lo) + float64(b+1)*width
		if b == n-1 {
			r = float64(hi)
		}
		// Exact count of integer values whose [v, v+1) interval starts
		// inside [l, r).
		cnt := int64(0)
		for v := ceilInt(l); float64(v) < r && v <= values[len(values)-1]; v++ {
			cnt += tr.Count(v)
		}
		buckets = append(buckets, histogram.Bucket{Left: l, Right: r, Subs: []float64{float64(cnt)}})
	}
	return histogram.NewPiecewise(buckets)
}

func ceilInt(x float64) int {
	i := int(x)
	if float64(i) < x {
		i++
	}
	return i
}

// EquiDepth groups the distinct values into n buckets of approximately
// equal counts (Equi-Sum(V,F)), closing each bucket as soon as it
// reaches the adaptive target remaining/(buckets left).
func EquiDepth(tr *dist.Tracker, n int) (*histogram.Piecewise, error) {
	values, counts, err := checkInput(tr, n)
	if err != nil {
		return nil, err
	}
	groups := equiDepthGroups(counts, n)
	return bucketsFromGroups(values, counts, groups)
}

// equiDepthGroups returns the [start, end) index ranges of an
// equi-depth grouping of counts into at most n groups.
func equiDepthGroups(counts []int64, n int) [][2]int {
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	var groups [][2]int
	start := 0
	acc := int64(0)
	remaining := total
	for i, c := range counts {
		acc += c
		left := n - len(groups)
		target := float64(remaining) / float64(left)
		if float64(acc) >= target || left == 1 || i == len(counts)-1 {
			groups = append(groups, [2]int{start, i + 1})
			remaining -= acc
			start = i + 1
			acc = 0
			if len(groups) == n {
				break
			}
		}
	}
	if start < len(counts) { // spill anything the break left behind
		groups[len(groups)-1][1] = len(counts)
	}
	return groups
}

// bucketsFromGroups materialises index groups over the distinct values
// as buckets spanning [firstValue, lastValue+1).
func bucketsFromGroups(values []int, counts []int64, groups [][2]int) (*histogram.Piecewise, error) {
	buckets := make([]histogram.Bucket, 0, len(groups))
	for _, g := range groups {
		if g[0] >= g[1] {
			continue
		}
		sum := int64(0)
		for i := g[0]; i < g[1]; i++ {
			sum += counts[i]
		}
		buckets = append(buckets, histogram.Bucket{
			Left:  float64(values[g[0]]),
			Right: float64(values[g[1]-1] + 1),
			Subs:  []float64{float64(sum)},
		})
	}
	return histogram.NewPiecewise(buckets)
}

// Compressed builds the SC histogram: values whose frequency exceeds
// T/n get singleton buckets; the remaining values are grouped
// equi-depth over the remaining budget (Compressed(V,F), §2 and
// Appendix A).
func Compressed(tr *dist.Tracker, n int) (*histogram.Piecewise, error) {
	values, counts, err := checkInput(tr, n)
	if err != nil {
		return nil, err
	}
	total := tr.Total()
	threshold := float64(total) / float64(n)

	var heavies []int // indices into values/counts
	for i, c := range counts {
		if float64(c) > threshold {
			heavies = append(heavies, i)
		}
	}
	// Keep at least one equi-depth bucket if any light values exist;
	// when everything is heavy, the heaviest n values win singletons.
	maxSingles := n
	if len(heavies) < len(values) {
		maxSingles = n - 1
	}
	if len(heavies) > maxSingles {
		// Retain the heaviest ones only.
		sortByCountDesc(heavies, counts)
		heavies = heavies[:maxSingles]
	}
	isHeavy := make(map[int]bool, len(heavies))
	for _, h := range heavies {
		isHeavy[h] = true
	}

	var buckets []histogram.Bucket
	for _, h := range heavies {
		v := values[h]
		buckets = append(buckets, histogram.Bucket{
			Left: float64(v), Right: float64(v + 1),
			Subs: []float64{float64(counts[h])},
		})
	}

	// Equi-depth over the light values, region by region: a bucket
	// cannot span a singleton, so each maximal run of light values is
	// partitioned separately with a budget proportional to its mass.
	var lightValues []int
	var lightCounts []int64
	var runs [][2]int // index ranges into lightValues of maximal runs
	runStart := -1
	for i := range values {
		if isHeavy[i] {
			if runStart >= 0 {
				runs = append(runs, [2]int{runStart, len(lightValues)})
				runStart = -1
			}
			continue
		}
		if runStart < 0 {
			runStart = len(lightValues)
		}
		lightValues = append(lightValues, values[i])
		lightCounts = append(lightCounts, counts[i])
	}
	if runStart >= 0 {
		runs = append(runs, [2]int{runStart, len(lightValues)})
	}
	budget := n - len(heavies)
	if len(runs) > 0 && budget > 0 {
		masses := make([]float64, len(runs))
		var totalLight float64
		for r, run := range runs {
			for i := run[0]; i < run[1]; i++ {
				masses[r] += float64(lightCounts[i])
			}
			totalLight += masses[r]
		}
		perRun := apportionAtLeastOne(masses, totalLight, budget, runs)
		for r, run := range runs {
			sub := lightCounts[run[0]:run[1]]
			groups := equiDepthGroups(sub, perRun[r])
			for _, g := range groups {
				lo, hi := run[0]+g[0], run[0]+g[1]
				if lo >= hi {
					continue
				}
				sum := int64(0)
				for i := lo; i < hi; i++ {
					sum += lightCounts[i]
				}
				buckets = append(buckets, histogram.Bucket{
					Left:  float64(lightValues[lo]),
					Right: float64(lightValues[hi-1] + 1),
					Subs:  []float64{float64(sum)},
				})
			}
		}
	}
	sortBuckets(buckets)
	return histogram.NewPiecewise(buckets)
}

// apportionAtLeastOne distributes budget units over runs proportional
// to mass with a minimum of one per run; if the budget cannot cover one
// per run, later (lighter) runs get folded into a single bucket anyway
// since equiDepthGroups(·, 1) returns one group — so each run receives
// at least one here by capping at the number of runs.
func apportionAtLeastOne(masses []float64, total float64, budget int, runs [][2]int) []int {
	out := make([]int, len(masses))
	for i := range out {
		out[i] = 1
	}
	extra := budget - len(masses)
	if extra <= 0 || total <= 0 {
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(masses))
	given := 0
	for i, m := range masses {
		exact := m / total * float64(extra)
		w := int(exact)
		out[i] += w
		given += w
		rems[i] = rem{i, exact - float64(w)}
	}
	for given < extra {
		best := 0
		for i := 1; i < len(rems); i++ {
			if rems[i].frac > rems[best].frac {
				best = i
			}
		}
		out[rems[best].idx]++
		rems[best].frac = -1
		given++
	}
	return out
}

func sortByCountDesc(heavies []int, counts []int64) {
	sort.Slice(heavies, func(a, b int) bool { return counts[heavies[a]] > counts[heavies[b]] })
}

func sortBuckets(buckets []histogram.Bucket) {
	sort.Slice(buckets, func(a, b int) bool { return buckets[a].Left < buckets[b].Left })
}
