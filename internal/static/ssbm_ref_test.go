package static

import (
	"container/heap"

	"dynahist/internal/dist"
	"dynahist/internal/histogram"
)

// refSSBM is the dedicated §5 merge loop that SSBM's call into
// union.Reduce replaced, kept as the reference the shared pass is
// checked against bit for bit: a linked list of integer-valued
// segments holding Σf and Σf², a version-checked lazy-deletion heap
// over adjacent pairs, and Eq. 4's Σf² − m·μ² as the merged cost.
func refSSBM(tr *dist.Tracker, n int) (*histogram.Piecewise, error) {
	values, counts, err := checkInput(tr, n)
	if err != nil {
		return nil, err
	}
	d := len(values)
	if n >= d {
		return Exact(tr)
	}

	segs := make([]refSegment, d)
	for i, v := range values {
		f := float64(counts[i])
		segs[i] = refSegment{
			lo: v, hi: v,
			sum: f, sum2: f * f,
			prev: i - 1, next: i + 1,
			alive: true,
		}
	}
	segs[d-1].next = -1

	h := &refPairHeap{}
	heap.Init(h)
	for i := 0; i+1 < d; i++ {
		heap.Push(h, refPairEntry{cost: refMergedCost(&segs[i], &segs[i+1]), left: i})
	}

	alive := d
	for alive > n && h.Len() > 0 {
		e := heap.Pop(h).(refPairEntry)
		l := e.left
		if !segs[l].alive || segs[l].version != e.lv {
			continue
		}
		r := segs[l].next
		if r < 0 || segs[r].version != e.rv {
			continue
		}
		segs[l].hi = segs[r].hi
		segs[l].sum += segs[r].sum
		segs[l].sum2 += segs[r].sum2
		segs[l].version++
		segs[r].alive = false
		segs[l].next = segs[r].next
		if segs[l].next >= 0 {
			segs[segs[l].next].prev = l
		}
		alive--
		if p := segs[l].prev; p >= 0 {
			heap.Push(h, refPairEntry{
				cost: refMergedCost(&segs[p], &segs[l]),
				left: p, lv: segs[p].version, rv: segs[l].version,
			})
		}
		if nx := segs[l].next; nx >= 0 {
			heap.Push(h, refPairEntry{
				cost: refMergedCost(&segs[l], &segs[nx]),
				left: l, lv: segs[l].version, rv: segs[nx].version,
			})
		}
	}

	buckets := make([]histogram.Bucket, 0, n)
	for i := 0; i >= 0; i = segs[i].next {
		s := &segs[i]
		buckets = append(buckets, histogram.Bucket{
			Left:  float64(s.lo),
			Right: float64(s.hi + 1),
			Subs:  []float64{s.sum},
		})
	}
	return histogram.NewPiecewise(buckets)
}

type refSegment struct {
	lo, hi     int     // inclusive integer value range
	sum, sum2  float64 // Σf and Σf² over the populated values inside
	prev, next int
	version    int
	alive      bool
}

// refMergedCost is Eq. 4 over the merged span, zeros included:
// Σ(f−μ)² = Σf² − m·μ².
func refMergedCost(a, b *refSegment) float64 {
	m := float64(b.hi - a.lo + 1)
	sum := a.sum + b.sum
	sum2 := a.sum2 + b.sum2
	mean := sum / m
	c := sum2 - m*mean*mean
	if c < 0 {
		return 0
	}
	return c
}

type refPairEntry struct {
	cost   float64
	left   int
	lv, rv int
}

type refPairHeap []refPairEntry

func (h refPairHeap) Len() int           { return len(h) }
func (h refPairHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h refPairHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refPairHeap) Push(x any)        { *h = append(*h, x.(refPairEntry)) }
func (h *refPairHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
