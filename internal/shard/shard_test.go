package shard

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dynahist/internal/core"
	"dynahist/internal/histogram"
)

func newMember() (Member, error) { return core.NewDCMemory(512) }

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg, newMember)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewDefaults(t *testing.T) {
	e := mustEngine(t, Config{})
	if got, want := e.NumShards(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("NumShards = %d, want GOMAXPROCS = %d", got, want)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Shards: -1}, newMember); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := New(Config{Policy: Policy(99)}, newMember); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(Config{MergeBudget: -5}, newMember); err == nil {
		t.Error("negative merge budget accepted")
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestSingleShardMatchesMember(t *testing.T) {
	e := mustEngine(t, Config{Shards: 1})
	m, err := newMember()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for range 5000 {
		v := float64(rng.Intn(1000))
		if err := e.Insert(v); err != nil {
			t.Fatal(err)
		}
		if err := m.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := e.Total(), m.Total(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Total = %v, want %v", got, want)
	}
	mb := m.Buckets()
	mt := histogram.TotalCount(mb)
	for x := 0.0; x <= 1000; x += 25 {
		want := histogram.MassBelow(mb, x) / mt
		if got := e.CDF(x); math.Abs(got-want) > 1e-9 {
			t.Fatalf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestHashPolicyKeepsValueOnOneShard(t *testing.T) {
	e := mustEngine(t, Config{Shards: 4, Policy: ByValueHash})
	for range 100 {
		if err := e.Insert(42); err != nil {
			t.Fatal(err)
		}
	}
	nonzero := 0
	for _, tot := range e.ShardTotals() {
		if tot > 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("value 42 spread over %d shards, want 1", nonzero)
	}
}

func TestRoundRobinBalances(t *testing.T) {
	e := mustEngine(t, Config{Shards: 4, Policy: RoundRobin})
	// A single heavily repeated value: hash striping would pile it on
	// one shard, round-robin must spread it evenly.
	for range 4000 {
		if err := e.Insert(42); err != nil {
			t.Fatal(err)
		}
	}
	for i, tot := range e.ShardTotals() {
		if tot != 1000 {
			t.Fatalf("shard %d holds %v points, want 1000", i, tot)
		}
	}
}

func TestDeleteFallsBackAcrossShards(t *testing.T) {
	// Ingest round-robin, delete under the same engine: the deleted
	// value may live on a different shard than the hash route, and the
	// engine must still find removable mass.
	e := mustEngine(t, Config{Shards: 4, Policy: RoundRobin})
	for range 400 {
		if err := e.Insert(7); err != nil {
			t.Fatal(err)
		}
	}
	for range 400 {
		if err := e.Delete(7); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Total(); got > 1e-6 {
		t.Fatalf("Total after deleting everything = %v, want 0", got)
	}
	if err := e.Delete(7); err == nil {
		t.Error("delete from empty engine succeeded")
	}
}

func TestBatchMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 8000)
	for i := range values {
		values[i] = float64(rng.Intn(500))
	}
	loop := mustEngine(t, Config{Shards: 4})
	batch := mustEngine(t, Config{Shards: 4})
	for _, v := range values {
		if err := loop.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.InsertBatch(values); err != nil {
		t.Fatal(err)
	}
	if lt, bt := loop.Total(), batch.Total(); math.Abs(lt-bt) > 1e-6 {
		t.Fatalf("loop total %v != batch total %v", lt, bt)
	}
	for x := 0.0; x <= 500; x += 10 {
		if l, b := loop.CDF(x), batch.CDF(x); math.Abs(l-b) > 1e-9 {
			t.Fatalf("CDF(%v): loop %v != batch %v", x, l, b)
		}
	}
	if err := batch.DeleteBatch(values[:4000]); err != nil {
		t.Fatal(err)
	}
	if got, want := batch.Total(), float64(len(values)-4000); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Total after DeleteBatch = %v, want %v", got, want)
	}
	if err := batch.InsertBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestSnapshotInvalidation(t *testing.T) {
	e := mustEngine(t, Config{Shards: 2})
	if got := e.Total(); got != 0 {
		t.Fatalf("empty Total = %v", got)
	}
	if got := e.CDF(100); got != 0 {
		t.Fatalf("empty CDF = %v", got)
	}
	if err := e.Insert(10); err != nil {
		t.Fatal(err)
	}
	if got := e.Total(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Total after first insert = %v, want 1", got)
	}
	// Cached: repeated reads agree.
	if a, b := e.CDF(50), e.CDF(50); a != b {
		t.Fatalf("unstable cached CDF: %v vs %v", a, b)
	}
	// A write invalidates the snapshot.
	if err := e.Insert(20); err != nil {
		t.Fatal(err)
	}
	if got := e.Total(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Total after second insert = %v, want 2", got)
	}
}

func TestMergeBudgetCapsView(t *testing.T) {
	e, err := New(Config{Shards: 4, MergeBudget: 8}, newMember)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for range 20000 {
		if err := e.Insert(float64(rng.Intn(5000))); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(e.Buckets()); got > 8 {
		t.Fatalf("merged view has %d buckets, budget 8", got)
	}
	if got, want := e.Total(), 20000.0; math.Abs(got-want) > 1 {
		t.Fatalf("Total after reduce = %v, want ~%v", got, want)
	}
}

func TestEstimateRange(t *testing.T) {
	e := mustEngine(t, Config{Shards: 4})
	for v := 0; v < 1000; v++ {
		if err := e.Insert(float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.EstimateRange(500, 100); got != 0 {
		t.Fatalf("inverted range estimate = %v, want 0", got)
	}
	got := e.EstimateRange(0, 999)
	if math.Abs(got-1000) > 1 {
		t.Fatalf("full-range estimate = %v, want ~1000", got)
	}
}

// badMember returns a structurally invalid bucket list after enough
// inserts, to exercise the degraded merge path.
type badMember struct {
	n int
}

func (m *badMember) Insert(v float64) error { m.n++; return nil }
func (m *badMember) Delete(v float64) error { m.n--; return nil }
func (m *badMember) Total() float64         { return float64(m.n) }
func (m *badMember) Buckets() []histogram.Bucket {
	if m.n > 1 {
		// Overlapping buckets: fails histogram.Validate inside Superpose.
		return []histogram.Bucket{
			{Left: 0, Right: 10, Subs: []float64{1}},
			{Left: 5, Right: 15, Subs: []float64{float64(m.n - 1)}},
		}
	}
	return []histogram.Bucket{{Left: 0, Right: 10, Subs: []float64{float64(m.n)}}}
}

func TestMergeFailureKeepsLastGoodView(t *testing.T) {
	e, err := New(Config{Shards: 1}, func() (Member, error) { return &badMember{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(1); err != nil {
		t.Fatal(err)
	}
	if got := e.Total(); got != 1 {
		t.Fatalf("Total = %v, want 1", got)
	}
	if _, err := e.View(); err != nil {
		t.Fatalf("unexpected merge error: %v", err)
	}
	// Second insert makes the member's bucket list invalid: reads must
	// keep the last good snapshot and report the merge error.
	if err := e.Insert(2); err != nil {
		t.Fatal(err)
	}
	// Total is the exact shard sum and never reads the merged view.
	if got := e.Total(); got != 2 {
		t.Fatalf("Total after failed merge = %v, want exact 2", got)
	}
	if got := e.CDF(10); got != 1 {
		t.Fatalf("CDF(10) after failed merge = %v, want last good 1", got)
	}
	if got := e.EstimateRange(0, 10); got != 1 {
		t.Fatalf("EstimateRange(0, 10) after failed merge = %v, want last good 1", got)
	}
	if bs := e.Buckets(); len(bs) != 1 || histogram.TotalCount(bs) != 1 {
		t.Fatalf("Buckets after failed merge = %v, want the last good single bucket of count 1", bs)
	}
	// View surfaces the merge error directly.
	if _, err := e.View(); err == nil {
		t.Fatal("View after failed merge: want error")
	}
	if got := e.Merges(); got != 1 {
		t.Fatalf("Merges = %d, want 1: a failed merge is not counted", got)
	}
}

// countingMember is a DC member that counts its Buckets calls, the
// only way the engine's merge reads a member.
type countingMember struct {
	Member
	calls *atomic.Int64
}

func (m countingMember) Buckets() []histogram.Bucket {
	m.calls.Add(1)
	return m.Member.Buckets()
}

// TestTotalNeverMerges pins that the point count is the exact shard
// sum: Total after writes reads no member's bucket list and builds no
// merged view, while a distribution read after a write merges once.
func TestTotalNeverMerges(t *testing.T) {
	var calls atomic.Int64
	e, err := New(Config{Shards: 4}, func() (Member, error) {
		m, err := newMember()
		return countingMember{Member: m, calls: &calls}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i % 100)
	}
	for round := 1; round <= 3; round++ {
		if err := e.InsertBatch(vs); err != nil {
			t.Fatal(err)
		}
		if err := e.Insert(7); err != nil {
			t.Fatal(err)
		}
		if err := e.Delete(7); err != nil {
			t.Fatal(err)
		}
		if got, want := e.Total(), float64(round*len(vs)); got != want {
			t.Fatalf("round %d: Total = %v, want %v", round, got, want)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("Total after writes made %d Buckets calls, want 0", n)
	}
	if n := e.Merges(); n != 0 {
		t.Fatalf("Merges after writes and counts = %d, want 0", n)
	}
	v, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Total(); got != e.Total() {
		t.Fatalf("merged view Total = %v, exact Total = %v", got, e.Total())
	}
	if n := e.Merges(); n != 1 {
		t.Fatalf("Merges after one View = %d, want 1", n)
	}
	before := calls.Load()
	_ = e.CDF(50)
	_ = e.Total()
	if n := calls.Load(); n != before {
		t.Fatalf("cached reads made %d Buckets calls, want 0", n-before)
	}
	if n := e.Merges(); n != 1 {
		t.Fatalf("Merges after cached reads = %d, want 1", n)
	}
}

// TestEngineView checks the pinned merged view: consistent statistics
// at pin time, stability under later writes, and cache reuse while no
// write lands.
func TestEngineView(t *testing.T) {
	e := mustEngine(t, Config{Shards: 4})
	for i := range 1000 {
		if err := e.Insert(float64(i % 100)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Total(); got != 1000 {
		t.Fatalf("view Total = %v, want 1000", got)
	}
	v2, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v {
		t.Fatal("View while no write landed: want the cached view, got a rebuild")
	}
	for i := range 500 {
		if err := e.Insert(float64(i % 100)); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Total(); got != 1000 {
		t.Fatalf("pinned view Total moved to %v after writes, want 1000", got)
	}
	v3, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := v3.Total(); got != 1500 {
		t.Fatalf("fresh view Total = %v, want 1500", got)
	}
}

// TestConcurrentStress hammers the engine with parallel writers,
// batch writers, deleters and readers; run under -race it checks the
// locking discipline, and afterwards the total must balance exactly.
func TestConcurrentStress(t *testing.T) {
	e := mustEngine(t, Config{Shards: 4})
	const (
		writers   = 4
		perWriter = 2000
	)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range perWriter {
				if err := e.Insert(float64(rng.Intn(2000))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			chunk := make([]float64, 100)
			for range perWriter / len(chunk) {
				for i := range chunk {
					chunk[i] = float64(rng.Intn(2000))
				}
				if err := e.InsertBatch(chunk); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perWriter {
				_ = e.Total()
				_ = e.CDF(1000)
				_ = e.EstimateRange(100, 900)
				_ = e.Buckets()
				_ = e.ShardTotals()
			}
		}()
	}
	wg.Wait()
	want := float64(2 * writers * perWriter)
	if got := e.Total(); math.Abs(got-want) > 1e-3 {
		t.Fatalf("Total after stress = %v, want %v", got, want)
	}
}

// noSnapMember is a Member without the Snapshotter capability.
type noSnapMember struct{ Member }

func TestSnapshotShardsRoundTrip(t *testing.T) {
	e := mustEngine(t, Config{Shards: 4})
	rng := rand.New(rand.NewSource(11))
	for range 8000 {
		if err := e.Insert(float64(rng.Intn(1000))); err != nil {
			t.Fatal(err)
		}
	}
	blobs, err := e.SnapshotShards()
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 4 {
		t.Fatalf("got %d blobs, want 4", len(blobs))
	}
	members := make([]Member, len(blobs))
	for i, b := range blobs {
		m, err := core.RestoreDC(b)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		members[i] = m
	}
	r, err := NewFromMembers(Config{}, members)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Total(), e.Total(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("restored Total = %v, want %v", got, want)
	}
	for x := 0.0; x <= 1000; x += 50 {
		if got, want := r.CDF(x), e.CDF(x); math.Abs(got-want) > 1e-9 {
			t.Fatalf("restored CDF(%v) = %v, want %v", x, got, want)
		}
	}
	// The restored engine keeps maintaining.
	if err := r.Insert(500); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Total(), e.Total()+1; math.Abs(got-want) > 1e-6 {
		t.Fatalf("Total after insert = %v, want %v", got, want)
	}
}

func TestSnapshotShardsRequiresCapability(t *testing.T) {
	e, err := New(Config{Shards: 2}, func() (Member, error) {
		m, err := newMember()
		if err != nil {
			return nil, err
		}
		return noSnapMember{m}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SnapshotShards(); err == nil {
		t.Fatal("snapshot of non-snapshottable members accepted")
	}
}

func TestNewFromMembersRejectsBadInput(t *testing.T) {
	if _, err := NewFromMembers(Config{}, nil); err == nil {
		t.Error("empty member list accepted")
	}
	m, err := newMember()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromMembers(Config{}, []Member{m, nil}); err == nil {
		t.Error("nil member accepted")
	}
	if _, err := NewFromMembers(Config{Policy: Policy(9)}, []Member{m}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewFromMembers(Config{MergeBudget: -1}, []Member{m}); err == nil {
		t.Error("negative merge budget accepted")
	}
}
