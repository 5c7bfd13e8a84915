package core

import (
	"fmt"
	"math"
	"sort"

	"dynahist/internal/histogram"
)

// EDDado is the equi-depth sub-division variant of the DADO histogram —
// the other §4 design alternative the paper explored ("using equi-depth
// divisions instead of equi-width divisions"). Each bucket stores an
// explicit interior split point instead of implicitly halving its
// range: right after a reorganisation the split sits at the bucket's
// mass median (equal counts on both sides, hence "equi-depth"), and the
// bucket's deviation measures how far the two halves' densities stray
// from the bucket mean as inserts and deletes accumulate.
//
// The reorganisation machinery mirrors DVO/DADO: one split-merge pair
// per update when it strictly reduces the total deviation.
//
// State lives in the shared flat histogram.Store arena (K = 2: the two
// half counters) plus a parallel splits array holding each bucket's
// interior split position; the store's equal-width mass helpers do not
// apply here, so the equi-depth math reads the arrays directly.
type EDDado struct {
	kind       Deviation
	maxBuckets int
	st         *histogram.Store // k=2: counters left/right of the split
	splits     []float64        // interior split position per bucket
	devs       []float64
	total      float64

	scratch [2]float64 // row staging for merge/split, alloc-free

	reorganisations int
}

// NewEDDado returns an equi-depth-subdivision dynamic histogram.
func NewEDDado(kind Deviation, maxBuckets int) (*EDDado, error) {
	if maxBuckets < 2 {
		return nil, fmt.Errorf("core: maxBuckets %d < 2", maxBuckets)
	}
	if kind != Variance && kind != AbsDeviation {
		return nil, fmt.Errorf("core: unknown deviation kind %d", int(kind))
	}
	return &EDDado{kind: kind, maxBuckets: maxBuckets, st: histogram.NewStore(2)}, nil
}

// NewEDDadoMemory sizes the histogram for a byte budget. An equi-depth
// bucket stores two borders' worth of interior state (left + split)
// plus two counters, i.e. the same 12-byte footprint as a DADO bucket
// plus one extra 4-byte split position.
func NewEDDadoMemory(kind Deviation, memBytes int) (*EDDado, error) {
	perBucket := 3*histogram.BorderBytes + 2*histogram.CounterBytes
	n := (memBytes - histogram.BorderBytes) / perBucket
	if n < 2 {
		return nil, fmt.Errorf("core: %dB cannot hold two equi-depth buckets", memBytes)
	}
	return NewEDDado(kind, n)
}

// MaxBuckets returns the bucket budget.
func (h *EDDado) MaxBuckets() int { return h.maxBuckets }

// Total returns the current total point count.
func (h *EDDado) Total() float64 { return h.total }

// Reorganisations returns the number of split-merge pairs performed.
func (h *EDDado) Reorganisations() int { return h.reorganisations }

// count returns bucket i's total point count.
func (h *EDDado) count(i int) float64 { return h.st.Count(i) }

// massBelow returns bucket i's mass in (-∞, x] under the
// uniform-within-half assumption around the stored split.
func (h *EDDado) massBelow(i int, x float64) float64 {
	st := h.st
	left, right, split := st.Left(i), st.Right(i), h.splits[i]
	row := st.Row(i)
	switch {
	case x <= left:
		return 0
	case x >= right:
		return st.Count(i)
	case x <= split:
		if split == left {
			return row[0]
		}
		return row[0] * (x - left) / (split - left)
	default:
		if right == split {
			return st.Count(i)
		}
		return row[0] + row[1]*(x-split)/(right-split)
	}
}

// Buckets exposes the state as ordinary histogram buckets: each
// equi-depth bucket appears with its true sub-division by splitting the
// counters at the stored split position (two unequal-width sub-buckets
// are approximated by the matching piecewise densities).
func (h *EDDado) Buckets() []histogram.Bucket {
	st := h.st
	out := make([]histogram.Bucket, 0, st.Len())
	for i := 0; i < st.Len(); i++ {
		left, right, split := st.Left(i), st.Right(i), h.splits[i]
		row := st.Row(i)
		// Represent the two unequal halves exactly as two buckets.
		if split > left && split < right {
			out = append(out,
				histogram.Bucket{Left: left, Right: split, Subs: []float64{row[0]}},
				histogram.Bucket{Left: split, Right: right, Subs: []float64{row[1]}},
			)
			continue
		}
		out = append(out, histogram.Bucket{Left: left, Right: right, Subs: []float64{st.Count(i)}})
	}
	return out
}

// CDF returns the approximate fraction of mass in (-∞, x].
func (h *EDDado) CDF(x float64) float64 {
	if h.total <= 0 {
		return 0
	}
	mass := 0.0
	for i := 0; i < h.st.Len(); i++ {
		if h.st.Left(i) >= x {
			break
		}
		mass += h.massBelow(i, x)
	}
	return mass / h.total
}

// EstimateRange returns the approximate number of points with integer
// value in [lo, hi] inclusive.
func (h *EDDado) EstimateRange(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	var below, above float64
	for i := 0; i < h.st.Len(); i++ {
		above += h.massBelow(i, hi+1)
		below += h.massBelow(i, lo)
	}
	return above - below
}

// Insert adds one occurrence of v.
func (h *EDDado) Insert(v float64) error {
	if err := histogram.CheckFinite(v); err != nil {
		return err
	}
	h.total++
	if i := h.st.Find(v); i >= 0 {
		if v < h.splits[i] {
			h.st.Add(i, 0, 1)
		} else {
			h.st.Add(i, 1, 1)
		}
		h.devs[i] = h.deviation(i)
		h.maybeSplitMerge()
		return nil
	}
	h.insertSingleton(v, 1)
	if h.st.Len() > h.maxBuckets {
		if m := h.bestMergePair(-1); m >= 0 {
			h.mergeAt(m)
		}
	}
	return nil
}

// Delete removes one occurrence of v, spilling to the nearest bucket
// with positive count when needed (§7.3), and across the nearest
// buckets when no bucket holds a whole point (SpreadDelete).
func (h *EDDado) Delete(v float64) error {
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
	h.maybeSplitMerge()
	return nil
}

// takeMass removes amount from bucket i, scaling both halves
// proportionally (the SpreadDelete callback).
func (h *EDDado) takeMass(i int, amount float64) {
	c := h.st.Count(i)
	h.st.Scale(i, (c-amount)/c)
	h.devs[i] = h.deviation(i)
}

func (h *EDDado) decrement(i int, v float64) bool {
	st := h.st
	x := math.Min(math.Max(v, st.Left(i)), st.Right(i)-1e-9)
	row := st.Row(i)
	split := h.splits[i]
	switch {
	case x < split && row[0] >= 1:
		st.Add(i, 0, -1)
	case x >= split && row[1] >= 1:
		st.Add(i, 1, -1)
	case row[0] >= 1:
		st.Add(i, 0, -1)
	case row[1] >= 1:
		st.Add(i, 1, -1)
	default:
		c := st.Count(i)
		if c < 1 {
			return false
		}
		st.Scale(i, (c-1)/c)
	}
	h.devs[i] = h.deviation(i)
	return true
}

func (h *EDDado) insertSingleton(v, count float64) {
	st := h.st
	left := math.Floor(v)
	right := left + 1
	pos := sort.Search(st.Len(), func(j int) bool { return st.Left(j) > v })
	if pos > 0 && st.Right(pos-1) > left {
		left = st.Right(pos - 1)
	}
	if pos < st.Len() && st.Left(pos) < right {
		right = st.Left(pos)
	}
	if right <= left {
		if i := histogram.NearestPositive(h.st, v); i >= 0 {
			if v < h.splits[i] {
				st.Add(i, 0, count)
			} else {
				st.Add(i, 1, count)
			}
			h.devs[i] = h.deviation(i)
		}
		return
	}
	st.Insert(pos, left, right)
	st.Add(pos, 0, count/2)
	st.Add(pos, 1, count/2)
	h.splits = append(h.splits, 0)
	copy(h.splits[pos+1:], h.splits[pos:])
	h.splits[pos] = (left + right) / 2
	h.devs = append(h.devs, 0)
	copy(h.devs[pos+1:], h.devs[pos:])
	h.devs[pos] = h.deviation(pos)
}

// deviation integrates |density − mean| (or its square) over the two
// unequal-width halves of bucket i.
func (h *EDDado) deviation(i int) float64 {
	st := h.st
	left, right, split := st.Left(i), st.Right(i), h.splits[i]
	w := right - left
	if w <= 0 {
		return 0
	}
	mean := st.Count(i) / w
	row := st.Row(i)
	dev := 0.0
	for half := 0; half < 2; half++ {
		lo, hi, c := left, split, row[0]
		if half == 1 {
			lo, hi, c = split, right, row[1]
		}
		hw := hi - lo
		if hw <= 0 {
			continue
		}
		d := c/hw - mean
		if h.kind == Variance {
			dev += hw * d * d
		} else {
			dev += hw * math.Abs(d)
		}
	}
	return dev
}

// mergedDeviation is the deviation the merged bucket over the pair
// (a, a+1) would carry, measured over the four original half-segments
// (plus any gap) against the merged mean density.
func (h *EDDado) mergedDeviation(a int) float64 {
	st := h.st
	b := a + 1
	w := st.Right(b) - st.Left(a)
	if w <= 0 {
		return 0
	}
	mean := (st.Count(a) + st.Count(b)) / w
	dev := 0.0
	add := func(lo, hi, c float64) {
		hw := hi - lo
		if hw <= 0 {
			return
		}
		d := c/hw - mean
		if h.kind == Variance {
			dev += hw * d * d
		} else {
			dev += hw * math.Abs(d)
		}
	}
	rowA, rowB := st.Row(a), st.Row(b)
	add(st.Left(a), h.splits[a], rowA[0])
	add(h.splits[a], st.Right(a), rowA[1])
	add(st.Left(b), h.splits[b], rowB[0])
	add(h.splits[b], st.Right(b), rowB[1])
	if gap := st.Left(b) - st.Right(a); gap > 0 {
		if h.kind == Variance {
			dev += gap * mean * mean
		} else {
			dev += gap * mean
		}
	}
	return dev
}

func (h *EDDado) bestSplit() int {
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

func (h *EDDado) bestMergePair(exclude int) int {
	best, bestDev := -1, math.Inf(1)
	for m := 0; m+1 < h.st.Len(); m++ {
		if m == exclude || m+1 == exclude {
			continue
		}
		d := h.mergedDeviation(m)
		if d < bestDev {
			best, bestDev = m, d
		}
	}
	return best
}

func (h *EDDado) maybeSplitMerge() {
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
	vm := h.mergedDeviation(m)
	if vm >= h.devs[s]-1e-12 {
		return
	}
	h.mergeAt(m)
	if s > m+1 {
		s--
	}
	h.splitAt(s)
	h.reorganisations++
}

// mergeAt merges buckets m and m+1 into one bucket whose split is the
// mass median of the combined piecewise profile, re-establishing the
// equi-depth sub-division.
func (h *EDDado) mergeAt(m int) {
	st := h.st
	left, right := st.Left(m), st.Right(m+1)
	total := st.Count(m) + st.Count(m+1)
	split := h.massMedian(m, total)
	cl := h.massBelow(m, split) + h.massBelow(m+1, split)
	st.Remove(m + 1)
	st.SetBorders(m, left, right)
	h.scratch[0], h.scratch[1] = cl, total-cl
	st.SetRow(m, h.scratch[:])
	h.splits[m] = split
	h.splits = append(h.splits[:m+1], h.splits[m+2:]...)
	h.devs[m] = h.deviation(m)
	h.devs = append(h.devs[:m+1], h.devs[m+2:]...)
}

// splitAt splits a bucket at its stored split point; each child gets an
// equi-depth interior split of its own (mass median under the uniform
// assumption = geometric midpoint, since each half is uniform).
func (h *EDDado) splitAt(s int) {
	st := h.st
	left, right, split := st.Left(s), st.Right(s), h.splits[s]
	row := st.Row(s)
	cl, cr := row[0], row[1]

	st.SetBorders(s, left, split)
	h.scratch[0], h.scratch[1] = cl/2, cl/2
	st.SetRow(s, h.scratch[:])
	h.splits[s] = (left + split) / 2

	st.Insert(s+1, split, right)
	h.scratch[0], h.scratch[1] = cr/2, cr/2
	st.SetRow(s+1, h.scratch[:])
	h.splits = append(h.splits, 0)
	copy(h.splits[s+2:], h.splits[s+1:])
	h.splits[s+1] = (split + right) / 2

	h.devs[s] = h.deviation(s)
	h.devs = append(h.devs, 0)
	copy(h.devs[s+2:], h.devs[s+1:])
	h.devs[s+1] = h.deviation(s + 1)
}

// massMedian returns the position where half of the combined mass of
// buckets m and m+1 lies.
func (h *EDDado) massMedian(m int, total float64) float64 {
	st := h.st
	target := total / 2
	rowA, rowB := st.Row(m), st.Row(m+1)
	segs := [4][3]float64{
		{st.Left(m), h.splits[m], rowA[0]},
		{h.splits[m], st.Right(m), rowA[1]},
		{st.Left(m + 1), h.splits[m+1], rowB[0]},
		{h.splits[m+1], st.Right(m + 1), rowB[1]},
	}
	first, last := st.Left(m), st.Right(m+1)
	acc := 0.0
	for _, seg := range segs {
		lo, hi, c := seg[0], seg[1], seg[2]
		if acc+c >= target && c > 0 {
			frac := (target - acc) / c
			x := lo + frac*(hi-lo)
			// Keep the split strictly interior.
			if x <= first {
				x = math.Nextafter(first, math.Inf(1))
			}
			if x >= last {
				x = math.Nextafter(last, math.Inf(-1))
			}
			return x
		}
		acc += c
	}
	return (first + last) / 2
}
