// Package dynahist is a from-scratch Go implementation of the dynamic
// histograms of Donjerkovic, Ioannidis and Ramakrishnan, "Dynamic
// Histograms: Capturing Evolving Data Sets" (ICDE 2000), together with
// every substrate the paper's evaluation depends on.
//
// A histogram approximates the distribution of a numeric column within
// a fixed memory budget, so a query optimizer can estimate predicate
// selectivities without touching the data. Classic histograms are
// static: rebuilt periodically from a full scan, stale in between. The
// dynamic histograms in this package are maintained incrementally —
// every insert and delete updates the summary in microseconds — while
// staying close to the best static constructions in accuracy.
//
// Every histogram is built through one front door — a Kind plus
// functional options:
//
//   - KindDADO — the Dynamic Average-Deviation Optimal histogram, the
//     paper's best performer and the recommended default.
//   - KindDVO — the Dynamic V-Optimal variant (variance-driven; the
//     same split-merge machinery, shared type Dynamic).
//   - KindDC — the Dynamic Compressed histogram with a chi-square
//     repartitioning trigger.
//   - KindAC — the Approximate Compressed histogram of Gibbons, Matias
//     and Poosala (VLDB'97), backed by a reservoir sample; the baseline
//     the paper compares against.
//   - KindEquiWidth … KindSSBM — the static constructions (Equi-Width,
//     Equi-Depth, Compressed, V-Optimal, SADO, SSBM) built from
//     complete data supplied with WithValues.
//
// Around them the package provides shared-nothing utilities (lossless
// superposition and SSBM reduction, paper §8), a sharded concurrent
// ingest engine (Sharded) that stripes writes across per-shard
// histograms and serves reads from an epoch-cached lossless union, a
// single-mutex wrapper (Concurrent), a batch-first write path
// (BatchWriter, implemented by everything here), and self-describing
// snapshots: every Snapshot wraps its payload in a kind-tagged
// envelope that the one Restore door rebuilds, so persistence never
// records a histogram's family out of band.
//
// Reads have one plane too: every public histogram is an Estimator,
// whose View method pins the current state as an immutable snapshot —
// one lock acquisition on Concurrent, one merged-union
// materialisation on Sharded — off which Total, CDF, PDF, Quantile,
// EstimateRange, Buckets and the batch queries (Describe,
// QuantileAll, CDFAll) answer lock-free, with prefix sums making CDF
// and Quantile O(log n).
//
// Quickstart:
//
//	h, _ := dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024)) // 1 KB budget
//	_ = dynahist.InsertAll(h, values)
//	sel := h.EstimateRange(100, 200) / h.Total()
//
//	v, _ := h.(dynahist.Estimator).View() // pin once …
//	sum, _ := v.Describe(dynahist.QuerySpec{Quantiles: []float64{0.5, 0.99}})
//	_ = sum // … answer many statistics consistently
//
// Errors throughout classify with errors.Is against the typed
// sentinels (ErrEmptyHistogram, ErrBadBudget, ErrBadKind,
// ErrBadOption, ErrBadSnapshot).
package dynahist

import (
	"dynahist/internal/histogram"
)

// Bucket is one histogram bucket covering the half-open value interval
// [Left, Right). Counters may hold more than one value when the bucket
// keeps sub-bucket structure (DVO/DADO); Count is their sum.
type Bucket struct {
	// Left and Right bound the bucket's value range [Left, Right).
	Left, Right float64
	// Counters are the sub-bucket point counts over equal-width slices
	// of the range. Plain histograms have exactly one counter.
	Counters []float64
}

// Count returns the total number of points in the bucket.
func (b Bucket) Count() float64 {
	s := 0.0
	for _, c := range b.Counters {
		s += c
	}
	return s
}

// Width returns Right − Left.
func (b Bucket) Width() float64 { return b.Right - b.Left }

// Histogram is the behaviour shared by every maintained histogram in
// this package.
type Histogram interface {
	// Insert adds one occurrence of the value.
	Insert(v float64) error
	// Delete removes one occurrence of the value. Deleting from an
	// empty histogram is an error; deleting a value the summary cannot
	// locate exactly falls back to the paper's nearest-bucket spill
	// policy.
	Delete(v float64) error
	// Total returns the number of points currently summarised.
	Total() float64
	// CDF returns the approximate fraction of points ≤ x.
	CDF(x float64) float64
	// EstimateRange returns the approximate number of points with
	// integer value in [lo, hi] inclusive — the range-predicate
	// selectivity estimate times Total().
	EstimateRange(lo, hi float64) float64
	// Buckets returns a copy of the current bucket list, sorted by
	// Left border.
	Buckets() []Bucket
}

// toPublic converts internal buckets to the public representation.
// The counters are copied into one slab; each bucket's slice is capped
// at its own length, so appending to one never touches its neighbour.
func toPublic(bs []histogram.Bucket) []Bucket {
	out := make([]Bucket, len(bs))
	k := 0
	for i := range bs {
		k += len(bs[i].Subs)
	}
	slab := make([]float64, 0, k)
	for i := range bs {
		n := len(slab)
		slab = append(slab, bs[i].Subs...)
		out[i] = Bucket{Left: bs[i].Left, Right: bs[i].Right, Counters: slab[n:len(slab):len(slab)]}
	}
	return out
}

// toInternal converts public buckets to the internal representation,
// with the counters in one slab as in toPublic.
func toInternal(bs []Bucket) []histogram.Bucket {
	out := make([]histogram.Bucket, len(bs))
	k := 0
	for i := range bs {
		k += len(bs[i].Counters)
	}
	slab := make([]float64, 0, k)
	for i := range bs {
		n := len(slab)
		slab = append(slab, bs[i].Counters...)
		out[i] = histogram.Bucket{Left: bs[i].Left, Right: bs[i].Right, Subs: slab[n:len(slab):len(slab)]}
	}
	return out
}

// BucketsForMemory returns how many buckets a histogram with
// countersPerBucket counters per bucket fits in memBytes under the
// paper's space accounting (4-byte borders and counters).
func BucketsForMemory(memBytes, countersPerBucket int) (int, error) {
	return histogram.BucketsForMemory(memBytes, countersPerBucket)
}
