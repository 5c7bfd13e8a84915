package core

import (
	"fmt"
	"math"
	"sort"

	"dynahist/internal/histerr"
	"dynahist/internal/histogram"
)

// Deviation selects the bucket-deviation measure that drives split and
// merge decisions (paper §4 and §4.1).
type Deviation int

const (
	// Variance minimises Σ (f − f̄)² — the V-Optimal partition
	// constraint; this is the DVO histogram.
	Variance Deviation = iota
	// AbsDeviation minimises Σ |f − f̄| — the Average-Deviation Optimal
	// partition constraint; this is the DADO histogram, the paper's
	// best performer. It is more robust to frequency outliers (§4.1).
	AbsDeviation
)

func (d Deviation) String() string {
	switch d {
	case Variance:
		return "variance"
	case AbsDeviation:
		return "abs-deviation"
	default:
		return fmt.Sprintf("Deviation(%d)", int(d))
	}
}

// DefaultSubBuckets is the number of sub-bucket counters per bucket.
// The paper found two or three comparable and finer subdivisions worse
// (§4); all its experiments use two.
const DefaultSubBuckets = 2

// DVO is a Dynamic V-Optimal (or, with AbsDeviation, Dynamic
// Average-Deviation Optimal) histogram (paper §4). Each bucket carries
// K equal-width sub-bucket counters; after every update the histogram
// considers one split-merge pair: split the bucket with the largest
// internal deviation, merge the adjacent pair with the smallest merged
// deviation, and perform both exactly when that strictly reduces the
// overall deviation (minΔV < 0, the paper's most aggressive upper
// bound of 0).
//
// The bucket state lives in a flat histogram.Store arena — one
// contiguous borders array, one contiguous sub-counter array and an
// incrementally maintained per-bucket count array — so the hot insert
// path does a binary search over one dense array, touches one counter
// row, and updates the cached deviations in O(K) with no Count()
// re-sums and no per-bucket heap allocations.
type DVO struct {
	kind       Deviation
	subBuckets int
	maxBuckets int
	st         *histogram.Store // sorted by Left; gaps allowed
	devs       []float64        // cached per-bucket deviation
	pairDevs   []float64        // cached merged deviation of (i, i+1)
	pairsStale bool             // batch mode defers pair upkeep to settle
	total      float64

	// scratch holds 2·K floats for split/merge row construction, so
	// reorganisations allocate nothing in steady state.
	scratch []float64

	reorganisations int
}

// NewDVO returns a Dynamic V-Optimal histogram with the given bucket
// budget and two sub-buckets per bucket.
func NewDVO(maxBuckets int) (*DVO, error) {
	return NewDynamic(Variance, maxBuckets, DefaultSubBuckets)
}

// NewDADO returns a Dynamic Average-Deviation Optimal histogram with
// the given bucket budget and two sub-buckets per bucket.
func NewDADO(maxBuckets int) (*DVO, error) {
	return NewDynamic(AbsDeviation, maxBuckets, DefaultSubBuckets)
}

// NewDynamic returns a dynamic split-merge histogram with an explicit
// deviation kind and sub-bucket count (the paper's §4 ablation: "we
// have also tried … dividing each bucket into more than two parts").
func NewDynamic(kind Deviation, maxBuckets, subBuckets int) (*DVO, error) {
	if maxBuckets < 2 {
		return nil, fmt.Errorf("core: %w: maxBuckets %d < 2 (split-merge needs at least two buckets)", histerr.ErrBudget, maxBuckets)
	}
	if subBuckets < 2 {
		return nil, fmt.Errorf("core: %w: subBuckets %d < 2 (deviation needs internal structure)", histerr.ErrOption, subBuckets)
	}
	if kind != Variance && kind != AbsDeviation {
		return nil, fmt.Errorf("core: %w: unknown deviation kind %d", histerr.ErrKind, int(kind))
	}
	return &DVO{
		kind:       kind,
		subBuckets: subBuckets,
		maxBuckets: maxBuckets,
		st:         histogram.NewStore(subBuckets),
		scratch:    make([]float64, 2*subBuckets),
	}, nil
}

// NewDVOMemory returns a DVO sized for a byte budget using the paper's
// accounting (§4.4: n+1 borders and 2n counters).
func NewDVOMemory(memBytes int) (*DVO, error) {
	n, err := histogram.BucketsForMemory(memBytes, DefaultSubBuckets)
	if err != nil {
		return nil, err
	}
	return NewDVO(n)
}

// NewDADOMemory returns a DADO sized for a byte budget.
func NewDADOMemory(memBytes int) (*DVO, error) {
	n, err := histogram.BucketsForMemory(memBytes, DefaultSubBuckets)
	if err != nil {
		return nil, err
	}
	return NewDADO(n)
}

// NewDynamicMemory returns a K-sub-bucket dynamic histogram sized for a
// byte budget ((n+1) borders + K·n counters).
func NewDynamicMemory(kind Deviation, memBytes, subBuckets int) (*DVO, error) {
	n, err := histogram.BucketsForMemory(memBytes, subBuckets)
	if err != nil {
		return nil, err
	}
	return NewDynamic(kind, n, subBuckets)
}

// Kind returns the deviation measure in use.
func (h *DVO) Kind() Deviation { return h.kind }

// SubBuckets returns the per-bucket counter count.
func (h *DVO) SubBuckets() int { return h.subBuckets }

// MaxBuckets returns the bucket budget.
func (h *DVO) MaxBuckets() int { return h.maxBuckets }

// Total returns the current total point count.
func (h *DVO) Total() float64 { return h.total }

// Reorganisations returns the number of split-merge pairs performed.
func (h *DVO) Reorganisations() int { return h.reorganisations }

// Buckets returns a deep copy of the current bucket list.
func (h *DVO) Buckets() []histogram.Bucket { return h.st.Buckets() }

// Store exposes the flat bucket arena for read-only consumers (views,
// equivalence tests); callers must not mutate it.
func (h *DVO) Store() *histogram.Store { return h.st }

// TotalDeviation returns the current overall deviation Σ V_i — the
// quantity the split-merge machinery greedily minimises.
func (h *DVO) TotalDeviation() float64 {
	s := 0.0
	for _, d := range h.devs {
		s += d
	}
	return s
}

// CDF returns the approximate fraction of mass in (-∞, x].
func (h *DVO) CDF(x float64) float64 {
	if h.total <= 0 {
		return 0
	}
	return h.st.MassBelowAll(x) / h.total
}

// EstimateRange returns the approximate number of points with integer
// value in [lo, hi] inclusive.
func (h *DVO) EstimateRange(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	return h.st.MassBelowAll(hi+1) - h.st.MassBelowAll(lo)
}

// Insert adds one occurrence of v. Values inside an existing bucket
// increment a sub-counter and then run the split-merge check; values
// outside every bucket borrow a new singleton bucket and merge the best
// pair to pay for it (paper Figure 3).
func (h *DVO) Insert(v float64) error {
	if err := histogram.CheckFinite(v); err != nil {
		return err
	}
	h.total++
	if i := h.st.Find(v); i >= 0 {
		h.st.AddAt(i, v, 1)
		h.devs[i] = h.devAt(i)
		h.refreshPairsAround(i)
		h.maybeSplitMerge()
		return nil
	}
	h.insertSingleton(v, 1)
	if h.st.Len() > h.maxBuckets {
		m := h.bestMergePair(-1)
		h.mergeAt(m)
	}
	// The borrow-merge may leave a profitable split-merge pair behind
	// (frequent under sorted insertions, where every point lands at the
	// advancing edge); run the regular check as well.
	h.maybeSplitMerge()
	return nil
}

// Delete removes one occurrence of v by decrementing the sub-counter
// that covers it. If that counter is empty the deletion spills: first
// to the other counters of the same bucket, then to the nearest bucket
// with positive count (§7.3), and when no bucket holds a whole point,
// across the nearest buckets (SpreadDelete). The split-merge check
// runs afterwards so that emptied buckets are reclaimed by zero-cost
// merges.
func (h *DVO) Delete(v float64) error {
	if err := h.deleteNoSettle(v); err != nil {
		return err
	}
	h.maybeSplitMerge()
	return nil
}

// deleteNoSettle is Delete without the trailing split-merge check —
// the batch path runs the check once per batch instead.
func (h *DVO) deleteNoSettle(v float64) error {
	if err := histogram.CheckFinite(v); err != nil {
		return err
	}
	if h.total < 1 {
		return ErrEmpty
	}
	i := h.st.Find(v)
	if i < 0 || !h.decrement(i, v) {
		j := histogram.NearestPositive(h.st, v)
		if (j < 0 || !h.decrement(j, v)) && !histogram.SpreadDelete(h.st, v, h.takeMass) {
			return ErrEmpty
		}
	}
	h.total--
	return nil
}

// InsertBatch adds every value in vs — the native batch write path.
// All counter increments are applied first and the split-merge
// consideration runs once at the end, repeated to quiescence: the
// per-insert trigger is two O(n) scans (bestSplit and bestMergePair)
// that dominate the per-value insert cost, and a batch needs only one
// settled structure, not one per intermediate state. The settle loop
// is capped at one reorganisation per inserted value — exactly the
// reorganisation budget the per-value path would have had — so a
// batch can never churn more than the equivalent insert loop.
//
// A non-finite value stops the batch there; values before it stay
// applied.
func (h *DVO) InsertBatch(vs []float64) error {
	h.pairsStale = true
	for _, v := range vs {
		if err := histogram.CheckFinite(v); err != nil {
			h.settle(len(vs))
			return err
		}
		h.total++
		if i := h.st.Find(v); i >= 0 {
			h.st.AddAt(i, v, 1)
			h.devs[i] = h.devAt(i)
			continue
		}
		h.insertSingleton(v, 1)
		if h.st.Len() > h.maxBuckets {
			// bestMergePair rebuilds the pair cache (clearing the stale
			// mark); re-mark it so the rest of the batch stays deferred.
			m := h.bestMergePair(-1)
			h.mergeAt(m)
			h.pairsStale = true
		}
	}
	h.settle(len(vs))
	return nil
}

// DeleteBatch removes every value in vs with the same deferred
// maintenance as InsertBatch. A value the summary cannot locate stops
// the batch with ErrEmpty; values before it stay applied.
func (h *DVO) DeleteBatch(vs []float64) error {
	h.pairsStale = true
	for _, v := range vs {
		if err := h.deleteNoSettle(v); err != nil {
			h.settle(len(vs))
			return err
		}
	}
	h.settle(len(vs))
	return nil
}

// settle runs the split-merge consideration to quiescence, performing
// at most maxReorgs reorganisations.
func (h *DVO) settle(maxReorgs int) {
	for range maxReorgs {
		before := h.reorganisations
		h.maybeSplitMerge()
		if h.reorganisations == before {
			return
		}
	}
}

// decrement removes one point from bucket i, preferring the sub-counter
// covering v. Reports whether a decrement happened.
func (h *DVO) decrement(i int, v float64) bool {
	st := h.st
	x := v
	if !st.Contains(i, x) {
		if x < st.Left(i) {
			x = st.Left(i)
		} else {
			x = st.Right(i) - 1e-9
		}
	}
	s := st.SubIndex(i, x)
	row := st.Row(i)
	if row[s] >= 1 {
		st.Add(i, s, -1)
		h.devs[i] = h.devAt(i)
		h.refreshPairsAround(i)
		return true
	}
	for j := range row {
		if row[j] >= 1 {
			st.Add(i, j, -1)
			h.devs[i] = h.devAt(i)
			h.refreshPairsAround(i)
			return true
		}
	}
	// Split and merge produce fractional counters, so the bucket may
	// hold ≥ 1 point without any single counter reaching 1; remove the
	// point proportionally.
	if c := st.Count(i); c >= 1 {
		st.Scale(i, (c-1)/c)
		h.devs[i] = h.devAt(i)
		h.refreshPairsAround(i)
		return true
	}
	return false
}

// takeMass removes amount from bucket i, scaling its counters
// proportionally (the SpreadDelete callback).
func (h *DVO) takeMass(i int, amount float64) {
	c := h.st.Count(i)
	h.st.Scale(i, (c-amount)/c)
	h.devs[i] = h.devAt(i)
	h.refreshPairsAround(i)
}

// refreshPairsAround recomputes the cached merged deviation of the
// pairs touching bucket i. While the cache is marked stale (batch
// mode) this is a no-op: settle rebuilds the whole cache once, which
// costs one O(n) pass per batch instead of two merged-deviation
// evaluations per value.
func (h *DVO) refreshPairsAround(i int) {
	if h.pairsStale {
		return
	}
	h.ensurePairCache()
	if i > 0 {
		h.pairDevs[i-1] = h.mergedDevAt(i - 1)
	}
	if i+1 < h.st.Len() {
		h.pairDevs[i] = h.mergedDevAt(i)
	}
}

// ensurePairCache (re)builds the pair-deviation cache when it is stale
// (deferred batch upkeep) or its length no longer matches the bucket
// list — which happens when restore paths assemble bucket state
// directly.
func (h *DVO) ensurePairCache() {
	want := h.st.Len() - 1
	if want < 0 {
		want = 0
	}
	if !h.pairsStale && len(h.pairDevs) == want {
		return
	}
	if cap(h.pairDevs) < want {
		h.pairDevs = make([]float64, want)
	} else {
		h.pairDevs = h.pairDevs[:want]
	}
	for m := range h.pairDevs {
		h.pairDevs[m] = h.mergedDevAt(m)
	}
	h.pairsStale = false
}

// nearestAny returns the bucket whose range is closest to v (the
// containing bucket if any), or -1 for an empty store.
func (h *DVO) nearestAny(v float64) int {
	if i := h.st.Find(v); i >= 0 {
		return i
	}
	return histogram.Nearest(h.st, v)
}

// insertSingleton adds a width-one bucket [v, v+1) holding count points
// spread across its sub-buckets, keeping the list sorted.
func (h *DVO) insertSingleton(v, count float64) {
	st := h.st
	left := math.Floor(v)
	right := left + 1
	// Clip against neighbours so buckets never overlap (a point can
	// land in a sub-unit gap between buckets).
	pos := sort.Search(st.Len(), func(j int) bool { return st.Left(j) > v })
	if pos > 0 && st.Right(pos-1) > left {
		left = st.Right(pos - 1)
	}
	if pos < st.Len() && st.Left(pos) < right {
		right = st.Left(pos)
	}
	if right <= left {
		// No room: the value sits flush between two buckets; widen
		// nothing and attribute the point to the nearest bucket instead.
		i := h.nearestAny(v)
		x := math.Min(math.Max(v, st.Left(i)), st.Right(i)-1e-9)
		st.AddAt(i, x, count)
		h.devs[i] = h.devAt(i)
		h.refreshPairsAround(i)
		return
	}
	st.Insert(pos, left, right)
	st.FillUniform(pos, count)
	h.devs = append(h.devs, 0)
	copy(h.devs[pos+1:], h.devs[pos:])
	h.devs[pos] = h.devAt(pos)
	// One more pair slot; the new bucket participates in up to two
	// pairs.
	if st.Len() > 1 {
		h.pairDevs = append(h.pairDevs, 0)
		if pos < len(h.pairDevs) {
			copy(h.pairDevs[pos+1:], h.pairDevs[pos:])
		}
	}
	h.refreshPairsAround(pos)
}

// devAt returns bucket i's internal deviation under the
// continuous-value and uniform-within-sub-bucket assumptions: the
// integral over the bucket of |density − mean density| (AbsDeviation)
// or (density − mean density)² (Variance). For two sub-buckets the
// loop is unrolled, preserving the exact operation order (and hence
// bit-identical results — split/merge decisions compare these values
// at near-ties, so the arithmetic is part of the observable
// behaviour). The bucket count is re-summed from the row rather than
// read off the store's running total for the same reason: the
// maintained total drifts from the fresh sum by ulps.
func (h *DVO) devAt(i int) float64 {
	st := h.st
	w := st.Width(i)
	if w <= 0 {
		return 0
	}
	if h.subBuckets == 2 {
		row := st.Row(i)
		subW := w / 2
		mean := (row[0] + row[1]) / w
		d0 := row[0]/subW - mean
		d1 := row[1]/subW - mean
		if h.kind == Variance {
			return subW*d0*d0 + subW*d1*d1
		}
		return subW*math.Abs(d0) + subW*math.Abs(d1)
	}
	row := st.Row(i)
	k := float64(h.subBuckets)
	subW := w / k
	c := 0.0
	for _, v := range row {
		c += v
	}
	mean := c / w
	dev := 0.0
	for _, c := range row {
		d := c/subW - mean
		if h.kind == Variance {
			dev += subW * d * d
		} else {
			dev += subW * math.Abs(d)
		}
	}
	return dev
}

// devOf returns the deviation a hypothetical bucket [left, right) with
// the given counters would carry.
func (h *DVO) devOf(left, right float64, row []float64) float64 {
	w := right - left
	if w <= 0 {
		return 0
	}
	k := float64(len(row))
	subW := w / k
	total := 0.0
	for _, c := range row {
		total += c
	}
	mean := total / w
	dev := 0.0
	for _, c := range row {
		d := c/subW - mean
		if h.kind == Variance {
			dev += subW * d * d
		} else {
			dev += subW * math.Abs(d)
		}
	}
	return dev
}

// mergedDevAt returns the deviation the merged bucket over the pair
// (m, m+1) would have, computed against the full piecewise profile of
// both buckets (and the zero-density gap between them, if any) — the
// V_M of the paper's Eq. (4).
func (h *DVO) mergedDevAt(m int) float64 {
	st := h.st
	la, rb := st.Left(m), st.Right(m+1)
	w := rb - la
	if w <= 0 {
		return 0
	}
	// Fresh row sums, not the maintained running totals: near-tie
	// merge decisions compare these values, so ulp drift matters.
	ca, cb := 0.0, 0.0
	for _, v := range st.Row(m) {
		ca += v
	}
	for _, v := range st.Row(m + 1) {
		cb += v
	}
	mean := (ca + cb) / w
	variance := h.kind == Variance
	dev := 0.0
	for b := m; b <= m+1; b++ {
		subW := st.Width(b) / float64(h.subBuckets)
		for _, c := range st.Row(b) {
			d := c/subW - mean
			if variance {
				dev += subW * d * d
			} else {
				dev += subW * math.Abs(d)
			}
		}
	}
	if gap := st.Left(m+1) - st.Right(m); gap > 0 {
		if variance {
			dev += gap * mean * mean
		} else {
			dev += gap * mean
		}
	}
	return dev
}

// bestSplit returns the index of the bucket with the largest deviation
// (Theorem 4.1: if minΔV < 0 the bucket to split is the one with the
// largest V). Buckets of sub-unit width are not split further — the
// histogram cannot resolve below one integer value.
func (h *DVO) bestSplit() int {
	best, bestDev := -1, 0.0
	for i := 0; i < h.st.Len(); i++ {
		if h.st.Width(i) <= 1+1e-9 {
			continue
		}
		if h.devs[i] > bestDev {
			best, bestDev = i, h.devs[i]
		}
	}
	return best
}

// bestMergePair returns the left index m of the adjacent pair (m, m+1)
// with the smallest merged deviation, excluding pairs that contain the
// bucket at index exclude (pass -1 to consider all pairs). Returns -1
// when no pair exists. Pair costs come from the incrementally
// maintained cache, making the per-update scan O(n) regardless of the
// sub-bucket count.
func (h *DVO) bestMergePair(exclude int) int {
	h.ensurePairCache()
	best, bestDev := -1, math.Inf(1)
	for m := 0; m+1 < h.st.Len(); m++ {
		if m == exclude || m+1 == exclude {
			continue
		}
		if d := h.pairDevs[m]; d < bestDev {
			best, bestDev = m, d
		}
	}
	return best
}

// maybeSplitMerge performs one split-merge pair when it strictly
// reduces the overall deviation (paper Figure 3): ΔV = V_M − V_S < 0.
func (h *DVO) maybeSplitMerge() {
	if h.st.Len() < 3 {
		return
	}
	s := h.bestSplit()
	if s < 0 {
		return
	}
	m := h.bestMergePair(s)
	if m < 0 {
		return
	}
	h.ensurePairCache()
	vm := h.pairDevs[m]
	// ΔV = V_M + V_children − V_S. With two sub-buckets the children
	// have zero deviation and this is exactly the paper's Eq. (4); with
	// more sub-buckets the residual child deviation is charged too.
	if vm+h.splitChildDeviation(s) >= h.devs[s]-1e-12 {
		return // minΔV ≥ 0: the current histogram is already best
	}
	// Order matters only for index bookkeeping: do the merge first and
	// fix up the split index if it sat to the right of the pair.
	h.mergeAt(m)
	if s > m+1 {
		s--
	}
	h.splitAt(s)
	h.reorganisations++
}

// splitChildDeviation returns the summed deviation the two children of
// splitting bucket s at its midpoint would carry. It is zero for two
// sub-buckets (each child's counters come out equal).
func (h *DVO) splitChildDeviation(s int) float64 {
	if h.subBuckets == 2 {
		return 0
	}
	st := h.st
	mid := (st.Left(s) + st.Right(s)) / 2
	k := h.subBuckets
	row := h.scratch[:k]
	dev := 0.0
	for _, half := range [2][2]float64{{st.Left(s), mid}, {mid, st.Right(s)}} {
		subW := (half[1] - half[0]) / float64(k)
		for j := 0; j < k; j++ {
			lo := half[0] + float64(j)*subW
			row[j] = st.Mass(s, lo, lo+subW)
		}
		dev += h.devOf(half[0], half[1], row)
	}
	return dev
}

// mergeAt replaces buckets m and m+1 by their merge. The new bucket's
// sub-counters are read off the old piecewise profile (paper §4:
// "calculated based on the counts and ranges of the original buckets").
func (h *DVO) mergeAt(m int) {
	st := h.st
	left, right := st.Left(m), st.Right(m+1)
	k := h.subBuckets
	subW := (right - left) / float64(k)
	row := h.scratch[:k]
	for j := 0; j < k; j++ {
		lo := left + float64(j)*subW
		hi := lo + subW
		row[j] = st.Mass(m, lo, hi) + st.Mass(m+1, lo, hi)
	}
	st.Remove(m + 1)
	st.SetBorders(m, left, right)
	st.SetRow(m, row)
	h.devs[m] = h.devAt(m)
	h.devs = append(h.devs[:m+1], h.devs[m+2:]...)
	// The pair (m, m+1) disappears; neighbours change.
	if len(h.pairDevs) == st.Len() { // cache was sized pre-merge
		h.pairDevs = append(h.pairDevs[:m], h.pairDevs[m+1:]...)
	}
	h.refreshPairsAround(m)
}

// splitAt replaces bucket s by two buckets split at its midpoint. Each
// half's sub-counters are read off the old profile; with two
// sub-buckets this yields children with equal counters and hence zero
// deviation (paper §4: "splitting never increases V").
func (h *DVO) splitAt(s int) {
	st := h.st
	left, right := st.Left(s), st.Right(s)
	mid := (left + right) / 2
	k := h.subBuckets
	lrow := h.scratch[:k]
	rrow := h.scratch[k : 2*k]
	lsubW := (mid - left) / float64(k)
	rsubW := (right - mid) / float64(k)
	for j := 0; j < k; j++ {
		lo := left + float64(j)*lsubW
		lrow[j] = st.Mass(s, lo, lo+lsubW)
		ro := mid + float64(j)*rsubW
		rrow[j] = st.Mass(s, ro, ro+rsubW)
	}
	st.SetBorders(s, left, mid)
	st.SetRow(s, lrow)
	st.Insert(s+1, mid, right)
	st.SetRow(s+1, rrow)
	h.devs[s] = h.devAt(s)
	h.devs = append(h.devs, 0)
	copy(h.devs[s+2:], h.devs[s+1:])
	h.devs[s+1] = h.devAt(s + 1)
	// One new pair between the children; both edge pairs change.
	if len(h.pairDevs) == st.Len()-2 { // cache was sized pre-split
		h.pairDevs = append(h.pairDevs, 0)
		copy(h.pairDevs[s+1:], h.pairDevs[s:])
	}
	h.refreshPairsAround(s)
	h.refreshPairsAround(s + 1)
}

// loadBuckets replaces the histogram's bucket state wholesale — the
// restore path (and the tests' state-assembly helper). Deviation and
// pair caches are rebuilt from scratch.
func (h *DVO) loadBuckets(buckets []histogram.Bucket) error {
	st, err := histogram.StoreOfBuckets(buckets, h.subBuckets)
	if err != nil {
		return err
	}
	h.st = st
	h.devs = make([]float64, st.Len())
	for i := range h.devs {
		h.devs[i] = h.devAt(i)
	}
	h.pairDevs = nil
	h.ensurePairCache()
	return nil
}
