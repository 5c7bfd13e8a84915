package dynahist_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dynahist"
)

// shardedFanOut streams the values into ins from `writers` goroutines
// over contiguous chunks and returns the elapsed wall time.
func shardedFanOut(t *testing.T, writers int, values []float64, ins func(v float64) error) time.Duration {
	t.Helper()
	per := (len(values) + writers - 1) / writers
	var wg sync.WaitGroup
	start := time.Now()
	for off := 0; off < len(values); off += per {
		end := min(off+per, len(values))
		chunk := values[off:end]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range chunk {
				if err := ins(v); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func uniformValues(seed int64, n, domain int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(rng.Intn(domain + 1))
	}
	return values
}

// TestShardedMatchesUnsharded asserts the §8 superposition claim at
// the API level: a sharded histogram over P shards of mem/P bytes each
// answers Total and CDF like a single histogram with the whole budget,
// within merge tolerance.
func TestShardedMatchesUnsharded(t *testing.T) {
	const (
		n      = 40000
		domain = 5000
		mem    = 8192
		shards = 8
	)
	values := uniformValues(17, n, domain)

	single := mustNewKind(t, dynahist.KindDADO, dynahist.WithMemory(mem))
	shardedH, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(mem/shards))
	}, dynahist.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := single.Insert(v); err != nil {
			t.Fatal(err)
		}
		if err := shardedH.Insert(v); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := shardedH.Total(), single.Total(); math.Abs(got-want) > 1 {
		t.Fatalf("Total = %v, want %v", got, want)
	}
	maxDiff := 0.0
	for x := 0.0; x <= domain; x += 10 {
		if d := math.Abs(shardedH.CDF(x) - single.CDF(x)); d > maxDiff {
			maxDiff = d
		}
	}
	// Both histograms approximate the same distribution under the same
	// total budget; their CDFs must stay within a small merge tolerance.
	if maxDiff > 0.02 {
		t.Fatalf("max |CDF_sharded − CDF_single| = %v, want ≤ 0.02", maxDiff)
	}
	lo, hi := float64(domain)/4, float64(domain)/2
	se, ue := shardedH.EstimateRange(lo, hi), single.EstimateRange(lo, hi)
	if math.Abs(se-ue) > 0.05*float64(n) {
		t.Fatalf("EstimateRange(%v,%v) = %v, unsharded %v", lo, hi, se, ue)
	}
}

// TestShardedHistogramInterface pins Sharded (and Concurrent) to the
// Histogram interface.
func TestShardedHistogramInterface(t *testing.T) {
	var _ dynahist.Histogram = (*dynahist.Sharded)(nil)
	var _ dynahist.Histogram = (*dynahist.Concurrent)(nil)
}

func TestShardedBatchAndDelete(t *testing.T) {
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDC, dynahist.WithMemory(512))
	}, dynahist.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	values := uniformValues(23, 10000, 1000)
	if err := s.InsertBatch(values); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Total(), float64(len(values)); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Total after InsertBatch = %v, want %v", got, want)
	}
	if err := s.DeleteBatch(values[:5000]); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Total(), float64(len(values)-5000); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Total after DeleteBatch = %v, want %v", got, want)
	}
	// Drain most of the remainder one value at a time. DC repartitioning
	// leaves fractional per-bucket counts, so the last few points may
	// not be removable as whole units — stop short of empty.
	for _, v := range values[5000:9500] {
		if err := s.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Total(), 500.0; math.Abs(got-want) > 1e-6 {
		t.Fatalf("Total after draining = %v, want %v", got, want)
	}
}

func TestShardedOptions(t *testing.T) {
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDC, dynahist.WithMemory(512))
	}, dynahist.WithShards(3), dynahist.WithShardPolicy(dynahist.ShardRoundRobin),
		dynahist.WithMergeBudget(16))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumShards(); got != 3 {
		t.Fatalf("NumShards = %d, want 3", got)
	}
	for range 3000 {
		if err := s.Insert(42); err != nil {
			t.Fatal(err)
		}
	}
	for i, tot := range s.ShardTotals() {
		if tot != 1000 {
			t.Fatalf("round-robin shard %d holds %v, want 1000", i, tot)
		}
	}
	if got := len(s.Buckets()); got > 16 {
		t.Fatalf("merged view has %d buckets, budget 16", got)
	}
}

// TestShardedThroughputVsConcurrent is the acceptance gate for the
// sharded engine: at 8 writer goroutines and equal total memory, the
// sharded histogram must ingest at least as fast as the single-mutex
// Concurrent wrapper. Each of the P shards maintains a histogram of
// mem/P bytes, so DADO's O(buckets) per-insert work shrinks by the
// shard count — the engine wins even on a single core, and by more
// once writers run truly in parallel.
func TestShardedThroughputVsConcurrent(t *testing.T) {
	const (
		writers = 8
		n       = 24000
		domain  = 5000
		mem     = 8192
	)
	values := uniformValues(29, n, domain)

	// Interleaved best-of-3 so a noisy scheduler moment on a shared CI
	// runner cannot invert the comparison (the real gap is ~5×).
	var s *dynahist.Sharded
	concurrentElapsed := time.Duration(math.MaxInt64)
	shardedElapsed := time.Duration(math.MaxInt64)
	for range 3 {
		c := dynahist.NewConcurrent(mustNewKind(t, dynahist.KindDADO, dynahist.WithMemory(mem)))
		if d := shardedFanOut(t, writers, values, c.Insert); d < concurrentElapsed {
			concurrentElapsed = d
		}
		var err error
		s, err = dynahist.NewSharded(func() (dynahist.Histogram, error) {
			return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(mem/writers))
		}, dynahist.WithShards(writers))
		if err != nil {
			t.Fatal(err)
		}
		if d := shardedFanOut(t, writers, values, s.Insert); d < shardedElapsed {
			shardedElapsed = d
		}
		if t.Failed() {
			return
		}
	}
	concurrentRate := float64(n) / concurrentElapsed.Seconds()
	shardedRate := float64(n) / shardedElapsed.Seconds()
	t.Logf("8-writer ingest: concurrent %.0f ops/s (%v), sharded %.0f ops/s (%v), speedup %.2fx",
		concurrentRate, concurrentElapsed, shardedRate, shardedElapsed,
		shardedRate/concurrentRate)
	if shardedRate < concurrentRate {
		t.Errorf("sharded ingest %.0f ops/s slower than single-mutex %.0f ops/s at %d writers",
			shardedRate, concurrentRate, writers)
	}
	if got, want := s.Total(), float64(n); math.Abs(got-want) > 1 {
		t.Fatalf("sharded Total = %v, want %v", got, want)
	}
}

// TestShardedConcurrentReads exercises the epoch-cached merged view
// under racing writers and readers.
func TestShardedConcurrentReads(t *testing.T) {
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDC, dynahist.WithMemory(512))
	})
	if err != nil {
		t.Fatal(err)
	}
	const perWorker = 3000
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range perWorker {
				if err := s.Insert(float64(rng.Intn(1000))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perWorker {
				if tot := s.Total(); tot < 0 {
					t.Error("negative total")
					return
				}
				if cdf := s.CDF(500); cdf < 0 || cdf > 1+1e-9 {
					t.Errorf("CDF out of range: %v", cdf)
					return
				}
				_ = s.Buckets()
			}
		}()
	}
	wg.Wait()
	if got, want := s.Total(), float64(4*perWorker); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Total = %v, want %v", got, want)
	}
}

// noSnapHistogram wraps a Histogram and hides its Snapshot method.
type noSnapHistogram struct{ dynahist.Histogram }

// TestShardedSnapshotRestore round-trips a Sharded histogram of each
// snapshottable family through Snapshot and Restore and asserts the
// recovered engine answers Total and CDF identically, then keeps
// maintaining.
func TestShardedSnapshotRestore(t *testing.T) {
	families := []struct {
		name    string
		factory func() (dynahist.Histogram, error)
	}{
		{"dado", func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024)) }},
		{"dc", func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDC, dynahist.WithMemory(1024)) }},
		{"ac", func() (dynahist.Histogram, error) {
			return dynahist.New(dynahist.KindAC, dynahist.WithBuckets(16), dynahist.WithSampleCapacity(500), dynahist.WithSeed(42))
		}},
	}
	values := uniformValues(23, 20000, 2000)
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			s, err := dynahist.NewSharded(fam.factory, dynahist.WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.InsertBatch(values); err != nil {
				t.Fatal(err)
			}
			blob, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			h, err := dynahist.Restore(blob)
			if err != nil {
				t.Fatal(err)
			}
			r, ok := h.(*dynahist.Sharded)
			if !ok {
				t.Fatalf("sharded blob restored as %T", h)
			}
			if r.NumShards() != s.NumShards() {
				t.Fatalf("NumShards = %d, want %d", r.NumShards(), s.NumShards())
			}
			if got, want := r.Total(), s.Total(); math.Abs(got-want) > 1e-6 {
				t.Fatalf("Total = %v, want %v", got, want)
			}
			for x := 0.0; x <= 2000; x += 100 {
				if got, want := r.CDF(x), s.CDF(x); math.Abs(got-want) > 1e-9 {
					t.Fatalf("CDF(%v) = %v, want %v", x, got, want)
				}
			}
			if err := r.Insert(1000); err != nil {
				t.Fatal(err)
			}
			if got, want := r.Total(), s.Total()+1; math.Abs(got-want) > 1e-6 {
				t.Fatalf("Total after insert = %v, want %v", got, want)
			}
		})
	}
}

func TestShardedSnapshotErrors(t *testing.T) {
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		h, err := dynahist.New(dynahist.KindDADO, dynahist.WithMemory(512))
		return noSnapHistogram{h}, err
	}, dynahist.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("snapshot over non-snapshottable members accepted")
	}

	good, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(512))
	}, dynahist.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := good.InsertBatch(uniformValues(31, 1000, 100)); err != nil {
		t.Fatal(err)
	}
	blob, err := good.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dynahist.Restore(blob[:len(blob)-1]); err == nil {
		t.Error("truncated sharded blob accepted")
	}
	if _, err := dynahist.Restore([]byte{1, 2, 3}); err == nil {
		t.Error("garbage blob accepted")
	}
}
