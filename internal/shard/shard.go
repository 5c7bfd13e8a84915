// Package shard implements a sharded concurrent ingest engine for
// dynamic histograms. The paper's §8 superposition result says the
// union of independently maintained histograms loses no information
// relative to its members, so a histogram can be maintained as P
// shared-nothing shards — each with its own lock and its own member
// histogram — and merged losslessly whenever a read needs the global
// view.
//
// Writes stripe across the shards (by value hash or round-robin) and
// contend only on the chosen shard's lock, so P writer goroutines
// scale to P-way parallelism instead of serialising on a single
// mutex. The point count is the exact sum of the shards' own counts
// and never merges. Distribution reads superpose the per-shard bucket
// lists with union.Superpose into a merged view that is cached under
// an epoch counter: every write bumps the epoch, and a read only pays
// the merge cost when the cached view's epoch is stale. A read-heavy
// phase therefore costs one merge, then runs lock-free off the cached
// snapshot.
package shard

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dynahist/internal/histerr"
	"dynahist/internal/histogram"
	"dynahist/internal/union"
)

// Member is the per-shard histogram maintained by the engine. Every
// maintained histogram in this repository satisfies it.
type Member interface {
	Insert(v float64) error
	Delete(v float64) error
	Total() float64
	Buckets() []histogram.Bucket
}

// Snapshotter is the optional capability a Member implements when its
// complete maintainable state can be serialized. The engine's
// SnapshotShards uses it to checkpoint every shard.
type Snapshotter interface {
	Snapshot() ([]byte, error)
}

// BatchMember is the optional capability a Member implements when it
// has a native batch write path. InsertBatch/DeleteBatch hand each
// shard's whole group to it under one lock hold, so a member that
// amortises its own maintenance across a batch (the DVO/DADO deferred
// split-merge settle) gets to.
type BatchMember interface {
	InsertBatch(vs []float64) error
	DeleteBatch(vs []float64) error
}

// Policy selects how writes are striped across shards.
type Policy int

const (
	// ByValueHash routes each value to the shard owning its hash, so
	// all occurrences of a value live in one shard and a Delete finds
	// the shard its inserts went to. This is the default.
	ByValueHash Policy = iota
	// RoundRobin spreads writes evenly regardless of value, trading
	// delete locality for perfectly balanced shard sizes under skew.
	RoundRobin
)

// Config parameterises an Engine.
type Config struct {
	// Shards is the number of stripes; 0 defaults to GOMAXPROCS.
	Shards int
	// Policy is the striping policy (default ByValueHash).
	Policy Policy
	// MergeBudget, when positive, reduces the merged read view to at
	// most this many buckets with union.Reduce. Zero keeps the full
	// lossless superposition.
	MergeBudget int
}

// cell is one shard: a lock and its member histogram, padded so
// adjacent cells do not share a cache line and the locks do not
// false-share under write contention.
type cell struct {
	mu sync.Mutex
	m  Member
	_  [64]byte
}

// snapshot is an immutable merged view of all shards at some epoch.
// The merged state is kept as a histogram.View, so the merge pays the
// prefix-sum build once and every read off the snapshot — including
// pinned views handed to callers — runs O(log n) without copying.
type snapshot struct {
	epoch uint64
	view  *histogram.View
}

// Engine stripes writes across per-shard member histograms and serves
// distribution reads from an epoch-cached union of their bucket lists.
// It is safe for concurrent use by any number of goroutines.
type Engine struct {
	cells  []cell
	policy Policy
	budget int

	rr    atomic.Uint64 // round-robin cursor
	epoch atomic.Uint64 // bumped on every write

	snapMu sync.Mutex // serialises snapshot rebuilds
	snap   atomic.Pointer[snapshot]
	merges atomic.Uint64 // successful snapshot rebuilds

	// scratch recycles the per-shard value groups of the batch paths,
	// so steady-state batch ingest routes without allocating: the
	// grouping slices keep their grown capacity between calls.
	scratch sync.Pool
}

// New builds an engine over freshly created members, one per shard.
// factory is called once per shard and must return independent
// instances.
func New(cfg Config, factory func() (Member, error)) (*Engine, error) {
	n := cfg.Shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", n)
	}
	if cfg.Policy != ByValueHash && cfg.Policy != RoundRobin {
		return nil, fmt.Errorf("shard: unknown policy %d", int(cfg.Policy))
	}
	if cfg.MergeBudget < 0 {
		return nil, fmt.Errorf("shard: negative merge budget %d", cfg.MergeBudget)
	}
	if factory == nil {
		return nil, errors.New("shard: nil member factory")
	}
	e := &Engine{cells: make([]cell, n), policy: cfg.Policy, budget: cfg.MergeBudget}
	for i := range e.cells {
		m, err := factory()
		if err != nil {
			return nil, fmt.Errorf("shard: member %d: %w", i, err)
		}
		if m == nil {
			return nil, fmt.Errorf("shard: member %d: factory returned nil", i)
		}
		e.cells[i].m = m
	}
	return e, nil
}

// NewFromMembers builds an engine over pre-existing members — the
// restore path of a checkpoint/recovery cycle, where each member was
// rebuilt from its own snapshot blob. The shard count is len(members)
// and overrides cfg.Shards; the engine owns the members afterwards.
func NewFromMembers(cfg Config, members []Member) (*Engine, error) {
	if len(members) == 0 {
		return nil, errors.New("shard: no members")
	}
	if cfg.Policy != ByValueHash && cfg.Policy != RoundRobin {
		return nil, fmt.Errorf("shard: unknown policy %d", int(cfg.Policy))
	}
	if cfg.MergeBudget < 0 {
		return nil, fmt.Errorf("shard: negative merge budget %d", cfg.MergeBudget)
	}
	e := &Engine{cells: make([]cell, len(members)), policy: cfg.Policy, budget: cfg.MergeBudget}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("shard: member %d is nil", i)
		}
		e.cells[i].m = m
	}
	return e, nil
}

// NumShards returns the number of shards.
func (e *Engine) NumShards() int { return len(e.cells) }

// Policy returns the striping policy the engine was built with.
func (e *Engine) Policy() Policy { return e.policy }

// MergeBudget returns the merged-view bucket cap (0 = unlimited).
func (e *Engine) MergeBudget() int { return e.budget }

// shardOf returns the shard index for a write of v.
func (e *Engine) shardOf(v float64) int {
	if len(e.cells) == 1 {
		return 0
	}
	switch e.policy {
	case RoundRobin:
		return int(e.rr.Add(1) % uint64(len(e.cells)))
	default:
		return int(hash64(math.Float64bits(v)) % uint64(len(e.cells)))
	}
}

// hash64 is the SplitMix64 finaliser — a cheap, well-mixed integer
// hash so adjacent float bit patterns land on different shards.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Insert adds one occurrence of v to the owning shard.
func (e *Engine) Insert(v float64) error {
	c := &e.cells[e.shardOf(v)]
	c.mu.Lock()
	err := c.m.Insert(v)
	c.mu.Unlock()
	if err == nil {
		e.epoch.Add(1)
	}
	return err
}

// Delete removes one occurrence of v. Under ByValueHash the owning
// shard is tried first; if its member cannot satisfy the delete (for
// example the engine ingested via InsertBatch under RoundRobin
// earlier, or the member spilled), the remaining shards are tried in
// order so a globally present point is always removable.
func (e *Engine) Delete(v float64) error {
	start := e.shardOf(v)
	var firstErr error
	for i := range e.cells {
		c := &e.cells[(start+i)%len(e.cells)]
		c.mu.Lock()
		canDelete := c.m.Total() >= 1
		var err error
		if canDelete {
			err = c.m.Delete(v)
		}
		c.mu.Unlock()
		if canDelete && err == nil {
			e.epoch.Add(1)
			return nil
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return fmt.Errorf("shard: %w: delete from empty engine", histerr.ErrEmpty)
}

// InsertBatch adds every value in vs, grouping values by shard so
// each shard's lock is taken at most once per call, and handing each
// group to the member's own batch path when it has one. The epoch is
// bumped once for the whole batch. Returns the first member error;
// values after a failing value within the same shard are skipped,
// other shards' values are still applied.
func (e *Engine) InsertBatch(vs []float64) error {
	return e.applyBatch(vs,
		func(m Member, v float64) error { return m.Insert(v) },
		func(bm BatchMember, g []float64) error { return bm.InsertBatch(g) })
}

// DeleteBatch removes every value in vs with the same amortised
// locking as InsertBatch. Unlike Delete it does not retry other
// shards on a member miss; under ByValueHash the owning shard is the
// only shard that ever held the value's inserts.
func (e *Engine) DeleteBatch(vs []float64) error {
	return e.applyBatch(vs,
		func(m Member, v float64) error { return m.Delete(v) },
		func(bm BatchMember, g []float64) error { return bm.DeleteBatch(g) })
}

func (e *Engine) applyBatch(vs []float64, op func(Member, float64) error, batchOp func(BatchMember, []float64) error) error {
	if len(vs) == 0 {
		return nil
	}
	n := len(e.cells)
	// Group values by owning shard through pooled scratch so the
	// routing step allocates nothing once the group slices have grown.
	// The scratch travels as a *[][]float64 so no per-call local has
	// its address taken (that would heap-allocate it every call).
	p, _ := e.scratch.Get().(*[][]float64)
	if p == nil {
		p = new([][]float64)
	}
	if len(*p) != n {
		*p = make([][]float64, n)
	}
	groups := *p
	if n == 1 {
		// Single shard: route the caller's slice directly; it is
		// cleared from the scratch below so the pool never retains it.
		groups[0] = vs
	} else {
		for i := range groups {
			groups[i] = groups[i][:0]
		}
		for _, v := range vs {
			s := e.shardOf(v)
			groups[s] = append(groups[s], v)
		}
	}
	var firstErr error
	applied := false
	for s, g := range groups {
		if len(g) == 0 {
			continue
		}
		c := &e.cells[s]
		c.mu.Lock()
		if bm, ok := c.m.(BatchMember); ok {
			// The member owns the group's loop; on error some prefix of
			// the group is applied, which still invalidates the view.
			if err := batchOp(bm, g); err != nil && firstErr == nil {
				firstErr = err
			}
			applied = true
		} else {
			for _, v := range g {
				if err := op(c.m, v); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					break
				}
				applied = true
			}
		}
		c.mu.Unlock()
	}
	if n == 1 {
		groups[0] = nil
	}
	*p = groups
	e.scratch.Put(p)
	if applied {
		e.epoch.Add(1)
	}
	return firstErr
}

// view returns the current merged snapshot and the error of the merge
// attempt that produced (or failed to refresh) it, rebuilding if any
// write has landed since it was cached. The epoch is sampled before
// the per-shard bucket lists are collected, so a write that races the
// collection leaves the stored snapshot already stale and the next
// read rebuilds — the cache can lag but never sticks. On a merge
// failure the last successfully merged snapshot is returned alongside
// the error (never nil: an empty view stands in before the first
// successful merge), so callers choose between failing soft (the
// per-statistic read methods) and surfacing the error (View).
func (e *Engine) view() (*snapshot, error) {
	cur := e.epoch.Load()
	if s := e.snap.Load(); s != nil && s.epoch == cur {
		return s, nil
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	cur = e.epoch.Load()
	if s := e.snap.Load(); s != nil && s.epoch == cur {
		return s, nil
	}
	lists := e.ShardBuckets()
	var merged []histogram.Bucket
	var err error
	if len(lists) > 0 {
		merged, err = union.Superpose(lists...)
		if err == nil && e.budget > 0 && len(merged) > e.budget {
			merged, err = union.Reduce(merged, e.budget)
		}
	}
	var v *histogram.View
	if err == nil {
		v, err = histogram.NewView(merged, histogram.TotalCount(merged))
	}
	if err != nil {
		// A member produced an unmergeable bucket list (only possible
		// with a misbehaving user-supplied Member). Keep serving the
		// last good view rather than silently reporting an empty
		// histogram; the stale epoch stamp means the next read retries
		// the merge.
		if prev := e.snap.Load(); prev != nil {
			return prev, err
		}
		return &snapshot{epoch: cur, view: histogram.EmptyView()}, err
	}
	s := &snapshot{epoch: cur, view: v}
	e.snap.Store(s)
	e.merges.Add(1)
	return s, nil
}

// ShardBuckets returns the bucket list of every shard that holds mass,
// in shard order, each read under its own shard's lock. These are the
// lists the merged view superposes; a caller that superposes several
// engines' lists in one pass gets the same union without any engine
// merging first (§8 superposition is associative). Like Total, the
// lists need not correspond to one global instant under concurrent
// writes.
func (e *Engine) ShardBuckets() [][]histogram.Bucket {
	lists := make([][]histogram.Bucket, 0, len(e.cells))
	for i := range e.cells {
		c := &e.cells[i]
		c.mu.Lock()
		bs := c.m.Buckets()
		c.mu.Unlock()
		if histogram.TotalCount(bs) > 0 {
			lists = append(lists, bs)
		}
	}
	return lists
}

// View pins the current merged state as an immutable histogram.View:
// one merge (cached under the epoch counter, so usually free) and then
// every statistic answered lock-free off the pinned snapshot. Unlike
// the fail-soft read methods it returns the merge error directly.
func (e *Engine) View() (*histogram.View, error) {
	s, err := e.view()
	if err != nil {
		return nil, err
	}
	return s.view, nil
}

// read returns the merged view for the fail-soft read methods: the
// freshly merged state normally, the last good (possibly stale) state
// while a misbehaving member keeps the merge failing.
func (e *Engine) read() *histogram.View {
	s, _ := e.view()
	return s.view
}

// Total returns the exact point count: the sum of the shards' own
// counts, each read under its shard's lock. It never touches the
// merged view, so a count costs O(shards) however stale the cached
// merge is. Under concurrent writes the per-shard counts need not
// correspond to one global instant.
func (e *Engine) Total() float64 {
	total := 0.0
	for i := range e.cells {
		c := &e.cells[i]
		c.mu.Lock()
		total += c.m.Total()
		c.mu.Unlock()
	}
	return total
}

// Merges returns how many times the merged view has been rebuilt
// successfully — one per distribution read that found the cached
// view stale.
func (e *Engine) Merges() uint64 { return e.merges.Load() }

// CDF returns the merged view's approximate fraction of mass ≤ x.
func (e *Engine) CDF(x float64) float64 { return e.read().CDF(x) }

// EstimateRange returns the merged view's approximate number of
// points with integer value in [lo, hi] inclusive.
func (e *Engine) EstimateRange(lo, hi float64) float64 {
	return e.read().EstimateRange(lo, hi)
}

// Buckets returns a deep copy of the merged view's bucket list.
func (e *Engine) Buckets() []histogram.Bucket {
	return e.read().Buckets()
}

// SnapshotShards serializes every shard's member via its Snapshotter
// capability and returns one blob per shard, in shard order. It errors
// if any member does not implement Snapshotter. Each shard is locked
// only while its own blob is taken, so the checkpoint is fuzzy under
// concurrent writes: each shard is internally consistent but the blobs
// need not correspond to one global instant — the right trade-off for
// statistics, where a checkpoint a few inserts askew is still a valid
// summary to resume from.
func (e *Engine) SnapshotShards() ([][]byte, error) {
	out := make([][]byte, len(e.cells))
	for i := range e.cells {
		c := &e.cells[i]
		c.mu.Lock()
		s, ok := c.m.(Snapshotter)
		var (
			blob []byte
			err  error
		)
		if ok {
			blob, err = s.Snapshot()
		}
		c.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("shard: member %d does not support snapshots", i)
		}
		if err != nil {
			return nil, fmt.Errorf("shard: member %d: %w", i, err)
		}
		out[i] = blob
	}
	return out, nil
}

// ShardTotals returns each shard's own point count — a balance
// diagnostic. The totals are read per-shard and may not be mutually
// consistent under concurrent writes.
func (e *Engine) ShardTotals() []float64 {
	out := make([]float64, len(e.cells))
	for i := range e.cells {
		c := &e.cells[i]
		c.mu.Lock()
		out[i] = c.m.Total()
		c.mu.Unlock()
	}
	return out
}
