package union

import (
	"container/heap"
	"errors"

	"dynahist/internal/histogram"
)

// refReduce is the container/heap loop that Reduce's split-array heap
// replaced, kept as the reference Reduce is checked against bit for
// bit: every refGroupEntry is boxed through heap.Push/heap.Pop, an
// entry is current while both groups' versions match the ones it was
// pushed with, and every output bucket gets its own one-counter slice.
func refReduce(buckets []histogram.Bucket, n int) ([]histogram.Bucket, error) {
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

	groups := make([]refGroup, d)
	for i := range buckets {
		b := &buckets[i]
		g := refGroup{left: b.Left, right: b.Right, prev: i - 1, next: i + 1, alive: true}
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

	h := &refGroupHeap{}
	heap.Init(h)
	for i := 0; i+1 < d; i++ {
		heap.Push(h, refGroupEntry{cost: refMergedGroupCost(&groups[i], &groups[i+1]), left: i})
	}
	alive := d
	for alive > n && h.Len() > 0 {
		e := heap.Pop(h).(refGroupEntry)
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
			heap.Push(h, refGroupEntry{
				cost: refMergedGroupCost(&groups[p], &groups[l]),
				left: p, lv: groups[p].version, rv: groups[l].version,
			})
		}
		if nx := groups[l].next; nx >= 0 {
			heap.Push(h, refGroupEntry{
				cost: refMergedGroupCost(&groups[l], &groups[nx]),
				left: l, lv: groups[l].version, rv: groups[nx].version,
			})
		}
	}

	out := make([]histogram.Bucket, 0, n)
	for i := 0; i >= 0; i = groups[i].next {
		g := &groups[i]
		out = append(out, histogram.Bucket{Left: g.left, Right: g.right, Subs: []float64{g.mass}})
	}
	return out, nil
}

// refGroup is a run of merged buckets, as Reduce's group was before
// the per-pair stamp: an alive flag and a version bumped on each merge.
type refGroup struct {
	left, right float64
	mass        float64
	e2          float64
	prev, next  int
	version     int
	alive       bool
}

// refMergedGroupCost is Σ len·(d − μ)² = e2 − W·μ² of the merged pair.
func refMergedGroupCost(a, b *refGroup) float64 {
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

type refGroupEntry struct {
	cost   float64
	left   int
	lv, rv int
}

type refGroupHeap []refGroupEntry

func (h refGroupHeap) Len() int           { return len(h) }
func (h refGroupHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h refGroupHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refGroupHeap) Push(x any)        { *h = append(*h, x.(refGroupEntry)) }
func (h *refGroupHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
