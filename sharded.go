package dynahist

import (
	"fmt"

	"dynahist/internal/histogram"
	"dynahist/internal/shard"
)

// ShardPolicy selects how a Sharded histogram stripes writes across
// its shards.
type ShardPolicy int

const (
	// ShardByValueHash routes every occurrence of a value to the same
	// shard (the default): deletes find the shard their inserts went
	// to, and the per-shard summaries each cover a stable subset of
	// the value domain.
	ShardByValueHash ShardPolicy = iota
	// ShardRoundRobin spreads writes evenly across shards regardless
	// of value — perfectly balanced shard sizes even under heavy value
	// skew, at the cost of delete locality.
	ShardRoundRobin
)

// ShardOption configures NewSharded.
type ShardOption func(*shard.Config)

// WithShards sets the shard count (default: GOMAXPROCS).
func WithShards(n int) ShardOption {
	return func(c *shard.Config) { c.Shards = n }
}

// WithShardPolicy sets the striping policy (default ShardByValueHash).
func WithShardPolicy(p ShardPolicy) ShardOption {
	return func(c *shard.Config) { c.Policy = shard.Policy(p) }
}

// WithMergeBudget caps the merged read view at n buckets; the
// lossless superposition of P shards can hold up to P× a single
// histogram's buckets, and reads that only need budget-quality
// estimates can keep the view small. Zero (the default) keeps the
// full superposition.
func WithMergeBudget(n int) ShardOption {
	return func(c *shard.Config) { c.MergeBudget = n }
}

// Sharded is a histogram maintained as P shared-nothing shards, each
// a private Histogram behind its own lock, merged losslessly on read
// by the paper's §8 superposition. It is safe for concurrent use by
// any number of writers and readers and scales ingest nearly linearly
// with the shard count, where Concurrent serialises every operation
// on one mutex.
//
// Total is the exact sum of the shards' own counts and never merges.
// Distribution reads (CDF, EstimateRange, Buckets, Quantile, View)
// are served from a cached merged snapshot that writes invalidate via
// an epoch counter; a read-heavy phase pays one merge and then runs
// lock-free. Use Concurrent instead when single-writer simplicity
// matters more than throughput, or when distribution reads must
// reflect each write with zero merge cost.
type Sharded struct {
	e *shard.Engine
	// memberKind is the kind of the histograms the shards maintain
	// (KindUnknown when the factory produced a type this package does
	// not know). The registry of the serving layer reports it as the
	// histogram's family.
	memberKind Kind
}

// memberAdapter presents a public Histogram as a shard.Member.
type memberAdapter struct {
	h Histogram
}

func (m memberAdapter) Insert(v float64) error { return m.h.Insert(v) }
func (m memberAdapter) Delete(v float64) error { return m.h.Delete(v) }
func (m memberAdapter) Total() float64         { return m.h.Total() }

// Buckets hands a *Dynamic or *DC shard's own fresh bucket copy to the
// merge as it is, instead of converting it to the public form and
// straight back; other histograms go through their Buckets.
func (m memberAdapter) Buckets() []histogram.Bucket {
	switch h := m.h.(type) {
	case *Dynamic:
		return h.inner.Buckets()
	case *DC:
		return h.inner.Buckets()
	}
	return toInternal(m.h.Buckets())
}

// Snapshot forwards to the wrapped histogram's Snapshot when it has
// one (every histogram in this package does), satisfying
// shard.Snapshotter so a Sharded built over them can checkpoint.
func (m memberAdapter) Snapshot() ([]byte, error) {
	s, ok := m.h.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("dynahist: %T does not support snapshots", m.h)
	}
	return s.Snapshot()
}

// InsertBatch forwards a shard's group to the member's native batch
// path when it has one, so the engine's per-shard grouping composes
// with the core histograms' deferred batch maintenance.
func (m memberAdapter) InsertBatch(vs []float64) error { return InsertAll(m.h, vs) }

// DeleteBatch is the delete side of InsertBatch.
func (m memberAdapter) DeleteBatch(vs []float64) error { return DeleteAll(m.h, vs) }

// NewSharded builds a sharded histogram whose shards are created by
// factory — typically one of this package's constructors:
//
//	s, _ := dynahist.NewSharded(func() (dynahist.Histogram, error) {
//	    return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
//	}, dynahist.WithShards(8))
//
// factory is called once per shard and must return independent
// instances; the engine owns them afterwards. Note the memory budget
// is per shard: P shards of 1 KB summarise with P KB total.
func NewSharded(factory func() (Histogram, error), opts ...ShardOption) (*Sharded, error) {
	var cfg shard.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	var memberKind Kind
	e, err := shard.New(cfg, func() (shard.Member, error) {
		h, err := factory()
		if err != nil {
			return nil, err
		}
		if memberKind == KindUnknown {
			memberKind = KindOf(h)
		}
		return memberAdapter{h: h}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Sharded{e: e, memberKind: memberKind}, nil
}

// MemberKind returns the kind of the histograms the shards maintain —
// KindDADO for a Sharded built over New(KindDADO, …) factories, say —
// or KindUnknown when the members came from outside this package.
// (KindOf on the Sharded itself reports KindSharded.)
func (s *Sharded) MemberKind() Kind { return s.memberKind }

// Insert adds one occurrence of v, contending only on the owning
// shard's lock.
func (s *Sharded) Insert(v float64) error { return s.e.Insert(v) }

// Delete removes one occurrence of v, trying the owning shard first
// and falling back to the others so a globally present point is
// always removable.
func (s *Sharded) Delete(v float64) error { return s.e.Delete(v) }

// InsertBatch adds every value in vs, locking each shard at most once
// — the amortised hot path for high-volume ingest.
func (s *Sharded) InsertBatch(vs []float64) error { return s.e.InsertBatch(vs) }

// DeleteBatch removes every value in vs with batched locking.
func (s *Sharded) DeleteBatch(vs []float64) error { return s.e.DeleteBatch(vs) }

// View pins the current merged state as an immutable snapshot: one
// merged-union materialisation (a cache hit when no write landed since
// the last one), then every statistic lock-free off the pinned state.
// Unlike the fail-soft per-statistic reads, which keep serving the
// last good merge, it returns the merge error directly. See Estimator.
func (s *Sharded) View() (*View, error) {
	iv, err := s.e.View()
	if err != nil {
		return nil, err
	}
	return &View{v: iv}, nil
}

// Quantile returns the smallest x with CDF(x) ≥ q, q in (0, 1],
// answered from the merged view.
func (s *Sharded) Quantile(q float64) (float64, error) { return quantileOf(s, q) }

// Total returns the exact point count, the sum of the shards' own
// counts. It never merges.
func (s *Sharded) Total() float64 { return s.e.Total() }

// CDF returns the merged view's approximate fraction of points ≤ x.
func (s *Sharded) CDF(x float64) float64 { return s.e.CDF(x) }

// EstimateRange returns the merged view's approximate number of
// points with integer value in [lo, hi] inclusive.
func (s *Sharded) EstimateRange(lo, hi float64) float64 { return s.e.EstimateRange(lo, hi) }

// Buckets returns a copy of the merged view's bucket list.
func (s *Sharded) Buckets() []Bucket { return toPublic(s.e.Buckets()) }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return s.e.NumShards() }

// ShardTotals returns each shard's own point count — a balance
// diagnostic for choosing between the striping policies.
func (s *Sharded) ShardTotals() []float64 { return s.e.ShardTotals() }

// Merges returns how many times the merged view has been rebuilt:
// one per distribution read that found a write since the last merge.
func (s *Sharded) Merges() uint64 { return s.e.Merges() }
