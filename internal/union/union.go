// Package union implements global histogram construction in a
// shared-nothing environment (paper §8): lossless superposition of
// member histograms, SSBM-style reduction of the superposed histogram
// back to a memory budget, and the site-population generator behind
// Figs. 20–23.
package union

import (
	"errors"
	"fmt"
	"math"

	"dynahist/internal/histogram"
)

// ErrNoMembers is returned when superposing an empty member list.
var ErrNoMembers = errors.New("union: no member histograms")

// Superpose builds the union histogram of the members: the result has
// a bucket border wherever any member has one, and each interval's
// count is the sum of the members' estimated mass inside it. As the
// paper notes, this loses no information relative to the members — the
// union histogram's CDF is the (weighted) sum of the member CDFs.
// Intervals where every member estimates zero mass are dropped,
// preserving empty gaps.
//
// Each member's massCursor sweeps the borders once, left to right, and
// adds the member's mass in every interval to that interval's counter,
// so the cost is linear in the number of borders times the number of
// members. A counter takes the members' shares in member order from 0,
// as one pass over the members per interval would, and every share is
// bit-identical to evaluating histogram.MassBelow at both of the
// interval's ends. Sweeping member by member keeps one cursor's state
// hot for the whole sweep instead of cycling through all of them at
// every border.
func Superpose(members ...[]histogram.Bucket) ([]histogram.Bucket, error) {
	if len(members) == 0 {
		return nil, ErrNoMembers
	}
	for _, m := range members {
		if err := histogram.Validate(m); err != nil {
			return nil, fmt.Errorf("union: invalid member: %w", err)
		}
	}
	borders := collectBorders(members)
	if len(borders) < 2 {
		return nil, errors.New("union: members have no extent")
	}

	// slab[i] sums the members' mass in [borders[i], borders[i+1]).
	slab := make([]float64, len(borders)-1)
	for _, m := range members {
		c := massCursor{buckets: m}
		below := c.below(borders[0])
		for i, hi := range borders[1:] {
			h := c.below(hi)
			slab[i] += h - below
			below = h
		}
	}
	// Keep the intervals with mass, each counter in place in the slab.
	out := make([]histogram.Bucket, 0, len(slab))
	for i, mass := range slab {
		if mass <= 0 {
			continue
		}
		n := len(out)
		slab[n] = mass
		out = append(out, histogram.Bucket{Left: borders[i], Right: borders[i+1], Subs: slab[n : n+1 : n+1]})
	}
	if len(out) == 0 {
		return nil, errors.New("union: members are all empty")
	}
	return out, nil
}

// massCursor answers histogram.MassBelow(buckets, x) for a
// non-decreasing sequence of x in amortised constant time. The buckets
// wholly below x form a prefix that only grows, so their counts are
// summed once, left to right, into done; each call then repeats the
// linear scan's remaining steps from the first bucket not yet passed.
// Because the additions happen in the scan's own order, every result
// is bit-identical to the scan from bucket 0.
type massCursor struct {
	buckets []histogram.Bucket
	next    int     // first bucket not folded into done
	done    float64 // Σ Count() of buckets[:next], summed in order
}

func (c *massCursor) below(x float64) float64 {
	bs := c.buckets
	for c.next < len(bs) && bs[c.next].Right <= x {
		c.done += bs[c.next].Count()
		c.next++
	}
	mass := c.done
	for i := c.next; i < len(bs); i++ {
		if bs[i].Right <= x {
			mass += bs[i].Count()
			continue
		}
		if bs[i].Left >= x {
			break
		}
		mass += bs[i].MassBelow(x)
	}
	return mass
}

// border is one candidate border of the union. primary marks an actual
// bucket edge (Left/Right) as opposed to a recomputed sub-bucket
// border: when near-equal borders are deduplicated, a primary border
// wins, so member bucket edges survive the union bit-exactly.
type border struct {
	v       float64
	primary bool
}

// collectBorders returns the union's borders: every member's bucket
// edges and sub-bucket borders, sorted, with exact duplicates collapsed
// into one border that is primary if any copy is, and near-duplicates
// then coalesced by borderDedupe. Sub-bucket borders carry information
// too; keeping them keeps the superposition lossless for DVO/DADO
// members.
//
// The order is that of one global stable sort of the borders in
// emission order (member by member, each bucket's Left, Right, then its
// sub-borders), taken in two steps. Each member's run is nearly sorted
// already — only a bucket's sub-borders trail its Right, and
// Validate's ≤1e-9 overlaps may put a border behind its predecessor's —
// so a stable insertion sort per member costs little; a k-way merge of
// the sorted runs that breaks ties toward the lower member then yields
// exactly the global stable order. The merge keeps each run's head
// value beside the run, so picking the next border scans a few cached
// values instead of reaching into every run. Within a run of equal
// values the collapsed border takes its last copy's bits — which only
// matters for ±0, and makes the union's choice between them the same as
// a set that each later copy overwrites. The merge feeds the
// deduplication as it goes, so no merged copy of the borders is ever
// stored.
func collectBorders(members [][]histogram.Bucket) []float64 {
	n := 0
	for _, m := range members {
		for i := range m {
			n += len(m[i].Subs) + 1
		}
	}
	bs := make([]border, 0, n)
	// runs holds each non-empty member run's unmerged rest bs[next:end]
	// in member order, with its head's value v = bs[next].v.
	type run struct {
		v         float64
		next, end int
	}
	runs := make([]run, 0, len(members))
	for _, m := range members {
		start := len(bs)
		for i := range m {
			bs = append(bs, border{m[i].Left, true}, border{m[i].Right, true})
			k := len(m[i].Subs)
			for j := 1; j < k; j++ {
				bs = append(bs, border{m[i].Left + m[i].Width()*float64(j)/float64(k), false})
			}
		}
		insertionSort(bs[start:])
		if len(bs) > start {
			runs = append(runs, run{bs[start].v, start, len(bs)})
		}
	}
	d := borderDedupe{out: make([]float64, 0, n)}
	var cur border // the run of equal values being collapsed
	for i := range bs {
		best := 0 // of equal heads, the lower member's
		for r := 1; r < len(runs); r++ {
			if runs[r].v < runs[best].v {
				best = r
			}
		}
		top := &runs[best]
		b := bs[top.next]
		if top.next++; top.next < top.end {
			top.v = bs[top.next].v
		} else {
			runs = append(runs[:best], runs[best+1:]...)
		}
		switch {
		case i == 0:
		case cur.v == b.v:
			b.primary = b.primary || cur.primary
		default:
			d.add(cur)
		}
		cur = b
	}
	if len(bs) > 0 {
		d.add(cur)
	}
	return d.borders()
}

// insertionSort sorts bs by value, stably: an element moves left only
// past strictly greater ones.
func insertionSort(bs []border) {
	for i := 1; i < len(bs); i++ {
		b := bs[i]
		j := i
		for ; j > 0 && bs[j-1].v > b.v; j-- {
			bs[j] = bs[j-1]
		}
		bs[j] = b
	}
}

// borderEps is the relative tolerance under which two borders are the
// same logical border. Sub-bucket borders are recomputed per member as
// Left + Width·j/k, so the same logical border derived from two members
// can disagree in the last few bits; without deduplication those
// near-duplicates become sliver buckets in the superposed result.
// 1e-12 is ~4 decimal orders above double-precision rounding yet far
// below any genuine sub-bucket width (≥ 1/k of a real bucket).
const borderEps = 1e-12

// borderDedupe coalesces a stream of sorted, distinct borders into one
// representative per run of near-equal borders, preferring a primary
// (actual bucket edge) value over a recomputed sub-border. Runs are
// anchored at their first border: b joins the run of anchor a when
// b−a ≤ borderEps·scale(a,b).
type borderDedupe struct {
	out    []float64
	anchor float64 // the open run's first border
	rep    float64 // its representative so far
	// haveRep is set once rep is a primary border; open while a run is.
	haveRep, open bool
}

// add feeds the next border, which must not sort before the last one.
func (d *borderDedupe) add(b border) {
	if d.open {
		scale := max(math.Abs(d.anchor), math.Abs(b.v))
		if b.v-d.anchor <= borderEps*scale {
			if !d.haveRep && b.primary {
				d.rep, d.haveRep = b.v, true
			}
			return
		}
		d.out = append(d.out, d.rep)
	}
	d.anchor, d.rep, d.haveRep, d.open = b.v, b.v, b.primary, true
}

// borders closes the open run and returns the representatives.
func (d *borderDedupe) borders() []float64 {
	if d.open {
		d.out = append(d.out, d.rep)
		d.open = false
	}
	return d.out
}

// Reduce merges the bucket list down to at most n buckets by repeatedly
// merging the adjacent pair with the smallest merged variance — the
// SSBM technique applied to an already-bucketised distribution ("treat
// the histogram as a data set to be partitioned", §8).
//
// It is the one SSBM pass in the module: static.SSBM (§5) runs it over
// unit-width singletons, where the merged variance is exactly Eq. 4;
// the §8 union reduces a superposed histogram with it; and so do the
// shard engine's merge budget and the cross-site fanout.
func Reduce(buckets []histogram.Bucket, n int) ([]histogram.Bucket, error) {
	if n < 1 {
		return nil, errors.New("union: reduce budget < 1")
	}
	if err := histogram.Validate(buckets); err != nil {
		return nil, err
	}
	d := len(buckets)
	if d <= n {
		return histogram.CloneBuckets(buckets), nil
	}

	groups := make([]group, d)
	for i := range buckets {
		b := &buckets[i]
		g := group{left: b.Left, right: b.Right, prev: i - 1, next: i + 1}
		k := len(b.Subs)
		subW := b.Width() / float64(k)
		for _, c := range b.Subs {
			g.mass += c
			if subW > 0 {
				dens := c / subW
				g.e2 += subW * dens * dens
			}
		}
		groups[i] = g
	}
	groups[d-1].next = -1

	// Each merge pushes at most two entries, and at most d−n merges run.
	size := (d - 1) + 2*(d-n)
	h := groupHeap{cost: make([]float64, 0, size), item: make([]uint64, 0, size)}
	for i := 0; i+1 < d; i++ {
		h.push(mergedGroupCost(&groups[i], &groups[i+1]), i, 0)
	}
	alive := d
	for alive > n && h.len() > 0 {
		l, stamp := h.pop()
		g := &groups[l]
		if g.stamp != stamp {
			continue // the pair (l, next) changed since this entry was pushed
		}
		r := &groups[g.next]
		g.right = r.right
		g.mass += r.mass
		g.e2 += r.e2
		g.stamp++
		r.stamp++ // r is gone, and with it the pair it began
		g.next = r.next
		if g.next >= 0 {
			groups[g.next].prev = l
		}
		alive--
		if p := g.prev; p >= 0 {
			groups[p].stamp++ // p's pair now ends at the grown l
			h.push(mergedGroupCost(&groups[p], g), p, groups[p].stamp)
		}
		if nx := g.next; nx >= 0 {
			h.push(mergedGroupCost(g, &groups[nx]), l, g.stamp)
		}
	}

	out := make([]histogram.Bucket, 0, alive)
	slab := make([]float64, alive) // one counter per output bucket
	for i := 0; i >= 0; i = groups[i].next {
		g := &groups[i]
		k := len(out)
		slab[k] = g.mass
		out = append(out, histogram.Bucket{Left: g.left, Right: g.right, Subs: slab[k : k+1 : k+1]})
	}
	return out, nil
}

// group aggregates a run of merged buckets: its span, its mass, and
// Σ len·density² over the covered intervals (gaps contribute width but
// no density), which is all the merged-variance formula needs. stamp
// names the live pair (group, next): it moves on whenever this group
// absorbs its next, its next absorbs its own next, or this group is
// absorbed, so a heap entry is current exactly while its stamp matches.
type group struct {
	left, right float64
	mass        float64
	e2          float64
	prev, next  int
	stamp       uint32
}

// mergedGroupCost is the variance of the merged density profile around
// the merged mean: Σ len·(d − μ)² = e2 − W·μ².
func mergedGroupCost(a, b *group) float64 {
	w := b.right - a.left
	if w <= 0 {
		return 0
	}
	mean := (a.mass + b.mass) / w
	c := a.e2 + b.e2 - w*mean*mean
	if c < 0 {
		return 0
	}
	return c
}

// groupHeap is a binary min-heap on cost, kept as two parallel arrays:
// the costs, which are all a sift reads (8 bytes an entry, so a
// fanout's ~1.8k entries stay in L1), and beside them each entry's
// left<<32 | stamp. push and pop move entries exactly as
// container/heap's up and down do — the same strict < and the same
// child choice — so ties among equal costs pop in the same order and
// Reduce's output does not depend on the heap's implementation. Stale
// entries are left in place and skipped on pop.
type groupHeap struct {
	cost []float64
	item []uint64 // left<<32 | stamp
}

func (h *groupHeap) len() int { return len(h.cost) }

func (h *groupHeap) push(c float64, left int, stamp uint32) {
	x := uint64(left)<<32 | uint64(stamp)
	h.cost, h.item = append(h.cost, c), append(h.item, x)
	cs, is := h.cost, h.item[:len(h.cost)]
	j := len(cs) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(c < cs[i]) {
			break
		}
		cs[j], is[j] = cs[i], is[i]
		j = i
	}
	cs[j], is[j] = c, x
}

// pop removes the cheapest entry and returns its left group and stamp.
func (h *groupHeap) pop() (left int, stamp uint32) {
	n := len(h.cost) - 1
	cs, is := h.cost[:n+1], h.item[:n+1]
	top, c, x := is[0], cs[n], is[n]
	h.cost, h.item = cs[:n], is[:n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n {
			right := 0 // set without a branch: which child is smaller is a coin flip
			if cs[j2] < cs[j] {
				right = 1
			}
			j += right
		}
		if !(cs[j] < c) {
			break
		}
		cs[i], is[i] = cs[j], is[j]
		i = j
	}
	cs[i], is[i] = c, x
	return int(top >> 32), uint32(top)
}

// CDFOf returns the normalised CDF of a bucket list.
func CDFOf(buckets []histogram.Bucket) func(float64) float64 {
	total := histogram.TotalCount(buckets)
	return func(x float64) float64 {
		if total <= 0 {
			return 0
		}
		return histogram.MassBelow(buckets, x) / total
	}
}
