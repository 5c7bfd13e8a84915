// Package core implements the paper's dynamic histograms: the Dynamic
// Compressed (DC) histogram of §3, driven by a chi-square
// repartitioning trigger, and the Dynamic V-Optimal (DVO) / Dynamic
// Average-Deviation Optimal (DADO) histograms of §4, driven by
// split-merge reorganisation over sub-bucket counters.
package core

import (
	"fmt"
	"math"
	"sort"

	"dynahist/internal/histerr"
	"dynahist/internal/histogram"
	"dynahist/internal/numeric"
)

// DefaultAlphaMin is the chi-square significance threshold below which
// the DC histogram repartitions. The paper reports the algorithm is
// insensitive to the exact value as long as it is much less than 1 and
// uses 1e-6 in all experiments (§3).
const DefaultAlphaMin = 1e-6

// ErrEmpty is returned when deleting from a histogram that holds no
// points.
var ErrEmpty = fmt.Errorf("core: %w", histerr.ErrEmpty)

// DC is a Dynamic Compressed histogram (paper §3). Buckets are
// contiguous and cover [min, max+1) of the values seen so far. Some
// buckets are singular — width one, holding a high-frequency value —
// while the remaining regular buckets aim for equal counts; when the
// chi-square test rejects the equal-count null hypothesis, the
// histogram repartitions using only the counts it already maintains.
//
// The bucket state lives in a flat histogram.Store arena with one
// counter per bucket, so the hot insert path is a binary search over
// one contiguous border array plus one counter bump.
type DC struct {
	maxBuckets int
	alphaMin   float64
	st         *histogram.Store // k=1, contiguous coverage
	singular   []bool
	total      float64

	loadingSeen map[float64]bool // distinct values during the loading phase
	loaded      bool             // loading phase complete (bucket budget reached once)

	// Incrementally maintained chi-square state over regular buckets.
	regSum   float64 // Σ counts of regular buckets
	regSum2  float64 // Σ counts² of regular buckets
	regCount int     // number of regular buckets

	// Chi-square trigger threshold, cached per degrees-of-freedom.
	cachedDF        int
	cachedThreshold float64

	// retriggerFloor guards against futile repartition storms: when a
	// repartition cannot push the statistic below the trigger (the
	// integer-width cut residual dominates at large N, where the
	// chi-square test becomes arbitrarily sensitive), re-triggering is
	// postponed until the statistic grows meaningfully beyond what the
	// last repartition achieved. Disable with SetDamping(false) to get
	// the paper's undamped trigger.
	retriggerFloor float64
	dampingOff     bool

	repartitions int
}

// dcSegment is one uniform-density piece of the histogram's current
// approximation, used during repartitioning.
type dcSegment struct {
	left, right, count float64
}

// NewDC returns a DC histogram that keeps at most maxBuckets buckets.
func NewDC(maxBuckets int) (*DC, error) {
	if maxBuckets < 1 {
		return nil, fmt.Errorf("core: %w: maxBuckets %d < 1", histerr.ErrBudget, maxBuckets)
	}
	return &DC{
		maxBuckets:  maxBuckets,
		alphaMin:    DefaultAlphaMin,
		st:          histogram.NewStore(1),
		loadingSeen: make(map[float64]bool),
		cachedDF:    -1,
	}, nil
}

// NewDCMemory returns a DC histogram sized for a memory budget in bytes
// using the paper's space accounting (§3.1: n+1 borders and n counters).
func NewDCMemory(memBytes int) (*DC, error) {
	n, err := histogram.BucketsForMemory(memBytes, 1)
	if err != nil {
		return nil, err
	}
	return NewDC(n)
}

// SetDamping toggles the futility floor on the repartition trigger
// (default on). The paper's trigger is undamped; with damping off, a
// data set large enough that no integer-border partition passes the
// chi-square test makes DC repartition on nearly every insertion —
// slow, and (as the paper itself observes for border relocations)
// error-inducing. Turn it off only to study that regime.
func (h *DC) SetDamping(on bool) {
	h.dampingOff = !on
	if h.dampingOff {
		h.retriggerFloor = 0
	}
}

// SetAlphaMin overrides the chi-square significance threshold; the
// value must lie in [0, 1]. 0 freezes the partition once loaded, 1
// repartitions after every insertion (§3).
func (h *DC) SetAlphaMin(alpha float64) error {
	if math.IsNaN(alpha) || alpha < 0 || alpha > 1 {
		return fmt.Errorf("core: %w: alphaMin %v outside [0,1]", histerr.ErrOption, alpha)
	}
	h.alphaMin = alpha
	h.cachedDF = -1
	return nil
}

// MaxBuckets returns the bucket budget.
func (h *DC) MaxBuckets() int { return h.maxBuckets }

// Total returns the current total point count.
func (h *DC) Total() float64 { return h.total }

// Repartitions returns how many times the histogram has reorganised
// its borders — the paper's "border relocations" diagnostic (§7.1).
func (h *DC) Repartitions() int { return h.repartitions }

// Loading reports whether the histogram is still in the loading phase
// (fewer distinct values seen than the bucket budget).
func (h *DC) Loading() bool { return !h.loaded }

// Buckets returns a deep copy of the current bucket list.
func (h *DC) Buckets() []histogram.Bucket { return h.st.Buckets() }

// Store exposes the flat bucket arena for read-only consumers; callers
// must not mutate it.
func (h *DC) Store() *histogram.Store { return h.st }

// SingularCount returns the number of buckets currently marked
// singular.
func (h *DC) SingularCount() int {
	n := 0
	for _, s := range h.singular {
		if s {
			n++
		}
	}
	return n
}

// CDF returns the approximate fraction of mass in (-∞, x].
func (h *DC) CDF(x float64) float64 {
	if h.total <= 0 {
		return 0
	}
	return h.st.MassBelowAll(x) / h.total
}

// EstimateRange returns the approximate number of points with integer
// value in [lo, hi] inclusive.
func (h *DC) EstimateRange(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	return h.st.MassBelowAll(hi+1) - h.st.MassBelowAll(lo)
}

// Insert adds one occurrence of v.
func (h *DC) Insert(v float64) error {
	if err := histogram.CheckFinite(v); err != nil {
		return err
	}
	if !h.loaded && h.loadingInsert(v) {
		return nil
	}
	i := h.st.Find(v)
	if i < 0 {
		i = h.extendRange(v)
	}
	h.addCount(i, 1)
	h.total++
	h.maybeRepartition()
	return nil
}

// Delete removes one occurrence of v, decrementing the containing
// bucket or, when it is empty, the nearest bucket with positive count
// (the §7.3 spill policy); when no bucket holds a whole point, the
// point is spread across the nearest buckets (SpreadDelete).
func (h *DC) Delete(v float64) error {
	if err := histogram.CheckFinite(v); err != nil {
		return err
	}
	if h.total < 1 {
		return ErrEmpty
	}
	i := h.st.Find(v)
	if i < 0 || h.st.Count(i) < 1 {
		i = histogram.NearestPositive(h.st, v)
	}
	if i >= 0 {
		h.addCount(i, -1)
	} else if !histogram.SpreadDelete(h.st, v, func(j int, amount float64) { h.addCount(j, -amount) }) {
		return ErrEmpty
	}
	h.total--
	if h.loaded {
		h.maybeRepartition()
	}
	return nil
}

// loadingInsert handles the loading phase (§3: the first distinct
// values each define a bucket). Every distinct value gets a unit-width
// bucket of its own; the empty space between populated values is kept
// in explicit zero-count gap buckets, so the histogram "has enough
// buckets to represent empty spaces between these points" (§7.2.1) and
// remains near-exact until the budget runs out. Reports whether the
// insert was absorbed; false means the loading phase just ended and
// the caller must run the normal insert path.
func (h *DC) loadingInsert(v float64) bool {
	st := h.st
	if h.loadingSeen[v] {
		i := st.Find(v)
		h.addCount(i, 1)
		h.total++
		return true
	}
	left := math.Floor(v)
	right := left + 1

	// Work out how many new buckets this distinct value needs so we
	// never exceed the budget mid-operation.
	needed := 1
	switch {
	case st.Len() == 0:
	case right <= st.Left(0):
		if right < st.Left(0) {
			needed = 2 // value + leading gap
		}
	case left >= st.Right(st.Len()-1):
		if left > st.Right(st.Len()-1) {
			needed = 2 // trailing gap + value
		}
	default:
		i := st.Find(v)
		if i >= 0 && st.Count(i) > 0 {
			// v falls inside an existing populated unit bucket (a
			// different float rounding to the same integer): no new
			// bucket needed.
			h.loadingSeen[v] = true
			h.addCount(i, 1)
			h.total++
			return true
		}
		needed = 3 // gap may split into gap + value + gap
	}
	if st.Len()+needed > h.maxBuckets {
		h.loaded = true
		h.loadingSeen = nil
		return false // caller runs the normal insert path
	}

	h.loadingSeen[v] = true
	h.total++
	switch {
	case st.Len() == 0:
		h.insertBucketAt(0, left, right, 1)
	case right <= st.Left(0):
		if right < st.Left(0) {
			h.insertBucketAt(0, right, st.Left(0), 0)
		}
		h.insertBucketAt(0, left, right, 1)
	case left >= st.Right(st.Len()-1):
		if prevRight := st.Right(st.Len() - 1); left > prevRight {
			h.insertBucketAt(st.Len(), prevRight, left, 0)
		}
		h.insertBucketAt(st.Len(), left, right, 1)
	default:
		// v sits inside a zero-count gap bucket: carve the unit value
		// bucket out of it.
		i := st.Find(v)
		a, b := st.Left(i), st.Right(i)
		if left < a {
			left = a
		}
		if right > b {
			right = b
		}
		// Replace [a,b) by up to three pieces.
		h.removeBucketAt(i)
		pos := i
		if a < left {
			h.insertBucketAt(pos, a, left, 0)
			pos++
		}
		h.insertBucketAt(pos, left, right, 1)
		pos++
		if right < b {
			h.insertBucketAt(pos, right, b, 0)
		}
	}
	if st.Len() >= h.maxBuckets {
		h.loaded = true
		h.loadingSeen = nil
	}
	h.rebuildChiState()
	return true
}

// insertBucketAt inserts a single-counter bucket at index pos.
func (h *DC) insertBucketAt(pos int, left, right, count float64) {
	h.st.Insert(pos, left, right)
	if count != 0 {
		h.st.Add(pos, 0, count)
	}
	h.singular = append(h.singular, false)
	copy(h.singular[pos+1:], h.singular[pos:])
	h.singular[pos] = false
}

// removeBucketAt deletes the bucket at index pos.
func (h *DC) removeBucketAt(pos int) {
	h.st.Remove(pos)
	h.singular = append(h.singular[:pos], h.singular[pos+1:]...)
}

// extendRange grows an end bucket so that v falls inside the histogram
// (§3: "extend the appropriate regular bucket up to x"). If the end
// bucket was singular it becomes regular, since it no longer has width
// one. Returns the index of the bucket now containing v.
func (h *DC) extendRange(v float64) int {
	st := h.st
	if v < st.Left(0) {
		st.SetBorders(0, v, st.Right(0))
		h.makeRegular(0)
		return 0
	}
	last := st.Len() - 1
	st.SetBorders(last, st.Left(last), v+1)
	h.makeRegular(last)
	return last
}

func (h *DC) makeRegular(i int) {
	if h.singular[i] {
		h.singular[i] = false
		h.rebuildChiState()
	}
}

// addCount adjusts bucket i's counter and the incremental chi-square
// sums.
func (h *DC) addCount(i int, delta float64) {
	old := h.st.Count(i)
	nw := old + delta
	if nw < 0 {
		nw = 0
	}
	h.st.Add(i, 0, nw-old)
	if !h.singular[i] {
		h.regSum += nw - old
		h.regSum2 += nw*nw - old*old
	}
}

// rebuildChiState recomputes the chi-square sums from scratch.
func (h *DC) rebuildChiState() {
	h.regSum, h.regSum2, h.regCount = 0, 0, 0
	for i := 0; i < h.st.Len(); i++ {
		if h.singular[i] {
			continue
		}
		c := h.st.Count(i)
		h.regSum += c
		h.regSum2 += c * c
		h.regCount++
	}
}

// chiThreshold returns the chi-square value at which the survival
// probability reaches αmin for the current degrees of freedom, cached
// until the regular bucket count changes.
func (h *DC) chiThreshold(df int) float64 {
	if df != h.cachedDF {
		t, err := numeric.ChiSquareInvSurvival(h.alphaMin, df)
		if err != nil {
			t = math.Inf(1)
		}
		h.cachedDF, h.cachedThreshold = df, t
	}
	return h.cachedThreshold
}

// chiSquare returns the current statistic over the regular buckets, or
// ok=false when there are too few of them.
func (h *DC) chiSquare() (chi2 float64, df int, ok bool) {
	k := h.regCount
	if k < 2 || h.regSum <= 0 {
		return 0, 0, false
	}
	mean := h.regSum / float64(k)
	chi2 = (h.regSum2 - float64(k)*mean*mean) / mean // Σ(c−μ)²/μ
	if chi2 < 0 {
		chi2 = 0
	}
	return chi2, k - 1, true
}

// maybeRepartition applies the chi-square trigger (§3): repartition
// when the probability of the observed regular counts under the
// uniform null hypothesis drops to αmin or below. A futility floor
// prevents the large-N pathology where the test rejects the
// repartitioned histogram too (every repartition then triggers the
// next): after a repartition that could not satisfy the test, the
// statistic must grow 25% beyond that residual before the histogram
// tries again.
func (h *DC) maybeRepartition() {
	chi2, df, ok := h.chiSquare()
	if !ok {
		return
	}
	threshold := h.chiThreshold(df)
	if chi2 < threshold || (!h.dampingOff && chi2 <= h.retriggerFloor) {
		return
	}
	h.repartition()
	// αmin = 1 means "repartition after every insertion" (§3) — the
	// trigger threshold is zero and the futility floor must stay off.
	if after, dfAfter, ok := h.chiSquare(); ok && threshold > 0 && after >= h.chiThreshold(dfAfter) {
		h.retriggerFloor = after * 1.25
	} else {
		h.retriggerFloor = 0
	}
}

// repartition rebuilds the bucket borders from the histogram's own
// piecewise-uniform approximation (§3, Figure 2): demote light singular
// buckets, re-cut the regular regions at equal-count quantiles, then
// promote heavy width-one regular buckets to singular. Total area and
// bucket count are preserved. This is the cold path — it materialises a
// bucket list, rebuilds it, and reloads the arena.
func (h *DC) repartition() {
	st := h.st
	n := st.Len()
	if n < 2 || h.total <= 0 {
		return
	}
	threshold := h.total / float64(n)

	// Step 1: demote singular buckets whose count no longer justifies a
	// singleton.
	for i := range h.singular {
		if h.singular[i] && st.Count(i) <= threshold {
			h.singular[i] = false
		}
	}

	// Collect surviving singular buckets and the maximal runs of
	// regular segments between them.
	var singulars []histogram.Bucket
	var regions [][]dcSegment
	var current []dcSegment
	flush := func() {
		if len(current) > 0 {
			regions = append(regions, current)
			current = nil
		}
	}
	for i := 0; i < n; i++ {
		if h.singular[i] {
			flush()
			singulars = append(singulars, histogram.Bucket{
				Left:  st.Left(i),
				Right: st.Right(i),
				Subs:  []float64{st.Count(i)},
			})
			continue
		}
		current = append(current, dcSegment{left: st.Left(i), right: st.Right(i), count: st.Count(i)})
	}
	flush()

	nRegular := n - len(singulars)
	if nRegular < 1 || len(regions) == 0 {
		return
	}

	// Step 2: allocate the regular budget across regions proportionally
	// to mass (at least one each), then cut each region at equal-count
	// quantiles of its own piecewise-uniform density.
	regionMass := make([]float64, len(regions))
	totalRegular := 0.0
	for r, segs := range regions {
		for _, s := range segs {
			regionMass[r] += s.count
		}
		totalRegular += regionMass[r]
	}
	caps := make([]int, len(regions))
	for r, segs := range regions {
		w := segs[len(segs)-1].right - segs[0].left
		caps[r] = int(w)
		if caps[r] < 1 {
			caps[r] = 1
		}
	}
	perRegion := allocateWithCaps(regionMass, totalRegular, nRegular, caps)

	rebuilt := make([]histogram.Bucket, 0, n)
	rebuiltSingular := make([]bool, 0, n)
	for r, segs := range regions {
		cuts := equiDepthCuts(segs, regionMass[r], perRegion[r])
		for j := 0; j+1 < len(cuts); j++ {
			rebuilt = append(rebuilt, histogram.Bucket{
				Left:  cuts[j],
				Right: cuts[j+1],
				Subs:  []float64{segmentMass(segs, cuts[j], cuts[j+1])},
			})
			rebuiltSingular = append(rebuiltSingular, false)
		}
	}
	for i := range singulars {
		rebuilt = append(rebuilt, singulars[i])
		rebuiltSingular = append(rebuiltSingular, true)
	}
	sortBucketsWith(rebuilt, rebuiltSingular)

	// Step 3: promote heavy width-one regular buckets to singular.
	for i := range rebuilt {
		if !rebuiltSingular[i] && rebuilt[i].Right-rebuilt[i].Left <= 1+1e-9 &&
			rebuilt[i].Subs[0] > threshold {
			rebuiltSingular[i] = true
		}
	}

	ns, err := histogram.StoreOfBuckets(rebuilt, 1)
	if err != nil {
		return // keep the current partition rather than corrupt state
	}
	h.st = ns
	h.singular = rebuiltSingular
	h.rebuildChiState()
	h.repartitions++
}

// loadBuckets replaces the bucket state wholesale — the restore path.
func (h *DC) loadBuckets(buckets []histogram.Bucket, singular []bool) error {
	st, err := histogram.StoreOfBuckets(buckets, 1)
	if err != nil {
		return err
	}
	h.st = st
	h.singular = singular
	h.rebuildChiState()
	return nil
}

// allocateWithCaps distributes budget units across bins in proportion
// to their mass, guaranteeing each bin at least one unit and never
// exceeding its capacity (the number of unit-width buckets its value
// range can hold). Surplus from capped bins is redistributed so the
// budget is fully used whenever total capacity allows — without this,
// narrow heavy regions would silently strand buckets and the histogram
// would drift below its memory budget.
func allocateWithCaps(mass []float64, totalMass float64, budget int, caps []int) []int {
	nBins := len(mass)
	out := make([]int, nBins)
	if nBins == 0 {
		return out
	}
	for i := range out {
		out[i] = 1
	}
	remaining := budget - nBins
	for remaining > 0 {
		// Bins that can still grow, and their mass.
		eligible := make([]int, 0, nBins)
		eligibleMass := 0.0
		for i := range out {
			if out[i] < caps[i] {
				eligible = append(eligible, i)
				eligibleMass += mass[i]
			}
		}
		if len(eligible) == 0 {
			break // every region is at capacity
		}
		given := 0
		type rem struct {
			idx  int
			frac float64
		}
		rems := make([]rem, 0, len(eligible))
		for _, i := range eligible {
			share := float64(remaining) / float64(len(eligible))
			if eligibleMass > 0 {
				share = mass[i] / eligibleMass * float64(remaining)
			}
			whole := int(share)
			if room := caps[i] - out[i]; whole > room {
				whole = room
			}
			out[i] += whole
			given += whole
			rems = append(rems, rem{idx: i, frac: share - float64(whole)})
		}
		if given == 0 {
			// Rounding gave nothing: hand out singles by largest
			// remainder until the pass places at least one.
			sort.Slice(rems, func(a, b int) bool {
				if rems[a].frac != rems[b].frac {
					return rems[a].frac > rems[b].frac
				}
				return rems[a].idx < rems[b].idx
			})
			for _, r := range rems {
				if given == remaining {
					break
				}
				if out[r.idx] < caps[r.idx] {
					out[r.idx]++
					given++
				}
			}
			if given == 0 {
				break
			}
		}
		remaining -= given
	}
	return out
}

// equiDepthCuts returns k+1 border positions splitting the
// piecewise-uniform mass of segs into roughly equal parts. Cut
// positions are snapped to the integer grid and kept at least one value
// apart: a Compressed histogram over an integer domain cannot resolve
// below a single value, and this atomicity is what lets a heavy value
// end up alone in a width-one bucket eligible for singular promotion
// (§3). The caller guarantees k does not exceed the region's unit-width
// capacity, so exactly k buckets are always produced: positions are
// clamped forward (≥ previous+1) and backward (leaving unit room for
// every remaining cut).
func equiDepthCuts(segs []dcSegment, mass float64, k int) []float64 {
	left, right := segs[0].left, segs[len(segs)-1].right
	cuts := []float64{left}
	if k > 1 {
		// Ideal quantile positions.
		ideals := make([]float64, 0, k-1)
		if mass > 0 {
			target := mass / float64(k)
			acc := 0.0
			next := target
			for _, s := range segs {
				for next <= acc+s.count+1e-12 && len(ideals) < k-1 {
					frac := 0.0
					if s.count > 0 {
						frac = (next - acc) / s.count
					}
					ideals = append(ideals, s.left+frac*(s.right-s.left))
					next += target
				}
				acc += s.count
			}
		}
		for len(ideals) < k-1 { // massless region: spread evenly
			j := len(ideals) + 1
			ideals = append(ideals, left+(right-left)*float64(j)/float64(k))
		}
		for c, ideal := range ideals {
			x := math.Round(ideal)
			if min := cuts[len(cuts)-1] + 1; x < min {
				x = min
			}
			if max := right - float64(k-1-c); x > max {
				x = max
			}
			if x <= cuts[len(cuts)-1] {
				continue // capacity exhausted; fewer buckets here
			}
			cuts = append(cuts, x)
		}
	}
	cuts = append(cuts, right)
	return cuts
}

// segmentMass integrates the piecewise-uniform density of segs over
// [lo, hi).
func segmentMass(segs []dcSegment, lo, hi float64) float64 {
	mass := 0.0
	for _, s := range segs {
		a := math.Max(lo, s.left)
		b := math.Min(hi, s.right)
		if b > a && s.right > s.left {
			mass += s.count * (b - a) / (s.right - s.left)
		}
	}
	return mass
}

// sortBucketsWith sorts buckets by left border, keeping the singular
// flags aligned.
func sortBucketsWith(buckets []histogram.Bucket, singular []bool) {
	idx := make([]int, len(buckets))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return buckets[idx[a]].Left < buckets[idx[b]].Left })
	nb := make([]histogram.Bucket, len(buckets))
	ns := make([]bool, len(singular))
	for to, from := range idx {
		nb[to] = buckets[from]
		ns[to] = singular[from]
	}
	copy(buckets, nb)
	copy(singular, ns)
}
