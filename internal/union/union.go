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
// The borders are swept once, left to right, with one massCursor per
// member, so the cost is linear in the number of borders times the
// number of members; every interval count is bit-identical to
// evaluating histogram.MassBelow at both of its ends.
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

	cursors := make([]massCursor, len(members))
	below := make([]float64, len(members)) // each member's mass below lo
	for m := range members {
		cursors[m].buckets = members[m]
		below[m] = cursors[m].below(borders[0])
	}
	out := make([]histogram.Bucket, 0, len(borders)-1)
	slab := make([]float64, len(borders)-1) // one counter per output bucket
	for i := 0; i+1 < len(borders); i++ {
		lo, hi := borders[i], borders[i+1]
		mass := 0.0
		for m := range cursors {
			h := cursors[m].below(hi)
			mass += h - below[m]
			below[m] = h
		}
		if mass <= 0 {
			continue
		}
		n := len(out)
		slab[n] = mass
		out = append(out, histogram.Bucket{Left: lo, Right: hi, Subs: slab[n : n+1 : n+1]})
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
// exactly the global stable order. Within a run of equal values the
// collapsed border takes its last copy's bits — which only matters for
// ±0, and makes the union's choice between them the same as a set that
// each later copy overwrites. The merge feeds the deduplication as it
// goes, so no merged copy of the borders is ever stored.
func collectBorders(members [][]histogram.Bucket) []float64 {
	n := 0
	for _, m := range members {
		for i := range m {
			n += len(m[i].Subs) + 1
		}
	}
	bs := make([]border, 0, n)
	// runs[m] is member m's unmerged rest: bs[runs[m].next:runs[m].end].
	runs := make([]struct{ next, end int }, len(members))
	for r, m := range members {
		start := len(bs)
		for i := range m {
			bs = append(bs, border{m[i].Left, true}, border{m[i].Right, true})
			k := len(m[i].Subs)
			for j := 1; j < k; j++ {
				bs = append(bs, border{m[i].Left + m[i].Width()*float64(j)/float64(k), false})
			}
		}
		insertionSort(bs[start:])
		runs[r].next, runs[r].end = start, len(bs)
	}
	d := borderDedupe{out: make([]float64, 0, n)}
	var cur border // the run of equal values being collapsed
	for first := true; ; {
		best := -1
		for r := range runs {
			if runs[r].next < runs[r].end && (best < 0 || bs[runs[r].next].v < bs[runs[best].next].v) {
				best = r
			}
		}
		if best < 0 {
			break
		}
		b := bs[runs[best].next]
		runs[best].next++
		switch {
		case first:
			first = false
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
		scale := math.Max(math.Abs(d.anchor), math.Abs(b.v))
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
		g := group{left: b.Left, right: b.Right, prev: i - 1, next: i + 1, alive: true}
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
	h := make(groupHeap, 0, (d-1)+2*(d-n))
	for i := 0; i+1 < d; i++ {
		h.push(groupEntry{cost: mergedGroupCost(&groups[i], &groups[i+1]), left: i})
	}
	alive := d
	for alive > n && len(h) > 0 {
		e := h.pop()
		l := e.left
		if !groups[l].alive || groups[l].version != e.lv {
			continue
		}
		r := groups[l].next
		if r < 0 || groups[r].version != e.rv {
			continue
		}
		groups[l].right = groups[r].right
		groups[l].mass += groups[r].mass
		groups[l].e2 += groups[r].e2
		groups[l].version++
		groups[r].alive = false
		groups[l].next = groups[r].next
		if groups[l].next >= 0 {
			groups[groups[l].next].prev = l
		}
		alive--
		if p := groups[l].prev; p >= 0 {
			h.push(groupEntry{
				cost: mergedGroupCost(&groups[p], &groups[l]),
				left: p, lv: groups[p].version, rv: groups[l].version,
			})
		}
		if nx := groups[l].next; nx >= 0 {
			h.push(groupEntry{
				cost: mergedGroupCost(&groups[l], &groups[nx]),
				left: l, lv: groups[l].version, rv: groups[nx].version,
			})
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
// no density), which is all the merged-variance formula needs.
type group struct {
	left, right float64
	mass        float64
	e2          float64
	prev, next  int
	version     int
	alive       bool
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

type groupEntry struct {
	cost   float64
	left   int
	lv, rv int
}

// groupHeap is a binary min-heap on cost. push and pop move entries
// exactly as container/heap's up and down do — the same strict < and
// the same child choice — so ties among equal costs pop in the same
// order and Reduce's output does not depend on the heap's
// implementation. Stale entries are left in place and skipped on pop.
type groupHeap []groupEntry

func (h *groupHeap) push(e groupEntry) {
	s := append(*h, e)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(e.cost < s[i].cost) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = e
	*h = s
}

func (h *groupHeap) pop() groupEntry {
	s := *h
	n := len(s) - 1
	top, x := s[0], s[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].cost < s[j].cost {
			j = j2
		}
		if !(s[j].cost < x.cost) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = x
	*h = s[:n]
	return top
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
