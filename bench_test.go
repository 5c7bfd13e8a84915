package dynahist_test

// One testing.B benchmark per paper figure (the full-fidelity tables
// are produced by cmd/histbench; these benches run the same runners in
// quick mode so `go test -bench=.` exercises every experiment), plus
// micro-benchmarks for the per-update cost of each histogram — the §3.1
// and §4.4 cost analyses.

import (
	"context"
	"io"
	"log"
	"math/rand"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dynahist"
	"dynahist/client"
	"dynahist/internal/experiments"
	"dynahist/internal/server"
	"dynahist/internal/wire"
)

func benchFigure(b *testing.B, id string) {
	runner, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("no runner for %s", id)
	}
	opts := experiments.Options{Seeds: 1, Points: 10000, Quick: true}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := runner(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B)  { benchFigure(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchFigure(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchFigure(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchFigure(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchFigure(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchFigure(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchFigure(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchFigure(b, "fig17") }
func BenchmarkFig18(b *testing.B) { benchFigure(b, "fig18") }
func BenchmarkFig19(b *testing.B) { benchFigure(b, "fig19") }
func BenchmarkFig20(b *testing.B) { benchFigure(b, "fig20") }
func BenchmarkFig21(b *testing.B) { benchFigure(b, "fig21") }
func BenchmarkFig22(b *testing.B) { benchFigure(b, "fig22") }
func BenchmarkFig23(b *testing.B) { benchFigure(b, "fig23") }

func BenchmarkSec731(b *testing.B)             { benchFigure(b, "sec731") }
func BenchmarkAblationSubBuckets(b *testing.B) { benchFigure(b, "ablation-subbucket") }
func BenchmarkAblationAlphaMin(b *testing.B)   { benchFigure(b, "ablation-alphamin") }

// Micro-benchmarks: per-update cost of each maintained histogram at a
// 1KB budget over a 100k-value random stream (the paper's §3.1/§4.4
// cost comparison: DC is O(log n) per point, DVO/DADO O(n)).

func benchInsert(b *testing.B, build func() (dynahist.Histogram, error)) {
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 1<<16)
	for i := range values {
		values[i] = float64(rng.Intn(5001))
	}
	h, err := build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for b.Loop() {
		if err := h.Insert(values[i&(len(values)-1)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

func BenchmarkInsertDC(b *testing.B) {
	benchInsert(b, func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDC, dynahist.WithMemory(1024)) })
}

func BenchmarkInsertDADO(b *testing.B) {
	benchInsert(b, func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024)) })
}

func BenchmarkInsertDVO(b *testing.B) {
	benchInsert(b, func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDVO, dynahist.WithMemory(1024)) })
}

func BenchmarkInsertAC(b *testing.B) {
	benchInsert(b, func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindAC, dynahist.WithMemory(1024), dynahist.WithDiskFactor(20), dynahist.WithSeed(1))
	})
}

func BenchmarkEstimateRangeDADO(b *testing.B) {
	h, err := dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for range 100000 {
		if err := h.Insert(float64(rng.Intn(5001))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		_ = h.EstimateRange(1000, 2000)
	}
}

func BenchmarkStaticSSBMConstruction(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	values := make([]int, 100000)
	for i := range values {
		values[i] = rng.Intn(5001)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := dynahist.New(dynahist.KindSSBM, dynahist.WithValues(values), dynahist.WithMemory(1024)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStaticVOptimalConstruction(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	values := make([]int, 20000)
	for i := range values {
		values[i] = rng.Intn(1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := dynahist.New(dynahist.KindVOptimal, dynahist.WithValues(values), dynahist.WithBuckets(32)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSubdivision(b *testing.B) { benchFigure(b, "ablation-subdivision") }
func BenchmarkMetricComparison(b *testing.B)    { benchFigure(b, "metric-comparison") }

func BenchmarkConcurrency(b *testing.B) { benchFigure(b, "concurrency") }

// Concurrent-ingest benchmarks: the single-mutex Concurrent wrapper
// against the sharded engine at 8 writer goroutines and equal total
// memory (8 KB as one histogram vs 8 shards of 1 KB). RunParallel with
// SetParallelism(8) gives 8·GOMAXPROCS writer goroutines; b.N inserts
// are spread across them, so ns/op is comparable across the three.

const benchShardWriters = 8

func benchParallelIngest(b *testing.B, ins func(v float64) error) {
	values := make([]float64, 1<<16)
	rng := rand.New(rand.NewSource(6))
	for i := range values {
		values[i] = float64(rng.Intn(5001))
	}
	var goroutineSeed atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(benchShardWriters)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(goroutineSeed.Add(1)) * 7919
		for pb.Next() {
			if err := ins(values[i&(len(values)-1)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

func BenchmarkIngest8WritersConcurrent(b *testing.B) {
	h, err := dynahist.New(dynahist.KindDADO, dynahist.WithMemory(8192))
	if err != nil {
		b.Fatal(err)
	}
	benchParallelIngest(b, dynahist.NewConcurrent(h).Insert)
}

func BenchmarkIngest8WritersSharded(b *testing.B) {
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(8192/benchShardWriters))
	}, dynahist.WithShards(benchShardWriters))
	if err != nil {
		b.Fatal(err)
	}
	benchParallelIngest(b, s.Insert)
}

// BenchmarkInsertBatchDADO measures the native batch write path of a
// single DADO: counter increments applied per value, the split-merge
// settle once per 256-value batch. One op is one batch; compare
// ns/op ÷ 256 against BenchmarkInsertDADO's ns/op to read the
// deferred-maintenance win (the "value/ns" metric reports throughput
// directly).
func BenchmarkInsertBatchDADO(b *testing.B) {
	h, err := dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	if err != nil {
		b.Fatal(err)
	}
	bw := h.(dynahist.BatchWriter)
	values := make([]float64, 1<<16)
	rng := rand.New(rand.NewSource(5))
	for i := range values {
		values[i] = float64(rng.Intn(5001))
	}
	const batch = 256
	off := 0
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if err := bw.InsertBatch(values[off : off+batch]); err != nil {
			b.Fatal(err)
		}
		off = (off + batch) & (len(values) - 1)
	}
	b.ReportMetric(float64(batch)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "value/ns")
}

// BenchmarkInsertBatchSharded is the batch-first acceptance benchmark:
// the 8-writer sharded engine fed 256-value batches, each batch one
// striping pass, at most one lock hold per shard, and the members' own
// deferred-maintenance batch path. One op is one batch; compare
// ns/op ÷ 256 against BenchmarkIngest8WritersSharded's per-value
// ns/op.
func BenchmarkInsertBatchSharded(b *testing.B) {
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(8192/benchShardWriters))
	}, dynahist.WithShards(benchShardWriters))
	if err != nil {
		b.Fatal(err)
	}
	values := make([]float64, 1<<16)
	rng := rand.New(rand.NewSource(7))
	for i := range values {
		values[i] = float64(rng.Intn(5001))
	}
	const batch = 256
	var goroutineSeed atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(benchShardWriters)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		off := (int(goroutineSeed.Add(1)) * 7919) % (len(values) - batch)
		for pb.Next() {
			// One batched call counts as `batch` inserts' worth of work;
			// ns/op here is per batch, not per value.
			if err := s.InsertBatch(values[off : off+batch]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(batch)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "value/ns")
}

// Ingest-over-HTTP benchmarks: the full serving stack — client
// encoding, loopback HTTP, server decoding, registry lookup, sharded
// InsertBatch — at 8 concurrent clients, for both wire encodings. One
// op is one batchSize-value request, so compare ns/op ÷ batchSize
// against the in-process 8-writer benchmarks above to read the
// network+codec tax, and the PerValue variant (batchSize 1) against
// the batched ones to read why the serving path is batch-first: every
// value shipped alone pays the whole HTTP round trip.

const benchHTTPBatch = 512

func benchHTTPIngest(b *testing.B, binary bool, batchSize int) {
	srv, err := server.New(server.Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := srv.Registry().Create(wire.CreateRequest{
		Name: "bench", Family: server.FamilyDC, MemBytes: 1024, Shards: benchShardWriters,
	}); err != nil {
		b.Fatal(err)
	}

	values := make([]float64, 1<<16)
	rng := rand.New(rand.NewSource(9))
	for i := range values {
		values[i] = float64(rng.Intn(5001))
	}
	ctx := context.Background()
	var goroutineSeed atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(benchShardWriters)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := client.New(ts.URL, ts.Client())
		off := (int(goroutineSeed.Add(1)) * 7919) % (len(values) - batchSize)
		for pb.Next() {
			chunk := values[off : off+batchSize]
			var err error
			if binary {
				_, err = c.InsertBinary(ctx, "bench", chunk)
			} else {
				_, err = c.Insert(ctx, "bench", chunk)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(batchSize)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "value/ns")
}

func BenchmarkHTTPIngest8ClientsBinary(b *testing.B) { benchHTTPIngest(b, true, benchHTTPBatch) }
func BenchmarkHTTPIngest8ClientsJSON(b *testing.B)   { benchHTTPIngest(b, false, benchHTTPBatch) }

// BenchmarkHTTPIngest8ClientsPerValue ships one value per request —
// what a non-batching client costs on the serving path. Its value/ns
// throughput sits orders of magnitude under the batched variants.
func BenchmarkHTTPIngest8ClientsPerValue(b *testing.B) { benchHTTPIngest(b, true, 1) }

func BenchmarkServing(b *testing.B) { benchFigure(b, "serving") }

// Read-plane benchmarks: 10 quantiles per op against a warm 8-shard
// engine with a ≥64-bucket merged view. ViewQuantiles pins one View
// (an epoch-cache hit) and answers off its prefix sums in O(log n)
// each; DirectQuantiles is the pre-redesign path — every call clones
// the merged bucket list and walks it linearly. Their ratio is what
// the TestPinnedViewSpeedupGate acceptance gate (≥3×) protects.

func benchQuantileEngine(b *testing.B) *dynahist.Sharded {
	b.Helper()
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	}, dynahist.WithShards(benchShardWriters))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = float64(rng.Intn(5001))
	}
	if err := s.InsertBatch(vals); err != nil {
		b.Fatal(err)
	}
	return s
}

var benchQuantileArgs = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9, 0.99}

func BenchmarkViewQuantiles(b *testing.B) {
	s := benchQuantileEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		v, err := s.View()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range benchQuantileArgs {
			if _, err := v.Quantile(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDirectQuantiles(b *testing.B) {
	s := benchQuantileEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		for _, q := range benchQuantileArgs {
			if _, err := linearQuantile(s, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHTTPBatchQuery measures the serving read path end to end:
// one POST /v1/h/{name}/query answering a mixed batch (total + 10
// quantiles + 5 CDF points + 2 ranges) from one pinned view, at 8
// concurrent clients. Compare one op here against 18 round trips of
// the per-statistic GETs to read the batch win.
func BenchmarkHTTPBatchQuery(b *testing.B) {
	srv, err := server.New(server.Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := srv.Registry().Create(wire.CreateRequest{
		Name: "bench", Family: server.FamilyDADO, MemBytes: 1024, Shards: benchShardWriters,
	}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = float64(rng.Intn(5001))
	}
	seed := client.New(ts.URL, ts.Client())
	if _, err := seed.InsertBinary(context.Background(), "bench", vals); err != nil {
		b.Fatal(err)
	}
	spec := client.QuerySpec{
		Quantiles: benchQuantileArgs,
		CDF:       []float64{500, 1500, 2500, 3500, 4500},
		Ranges:    []client.Range{{Lo: 1000, Hi: 2000}, {Lo: 4000, Hi: 5000}},
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(benchShardWriters)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := client.New(ts.URL, ts.Client())
		for pb.Next() {
			if _, err := c.Query(ctx, "bench", spec); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkShardedRead measures the epoch-cached read path: after a
// write-heavy warmup, every CDF call but the first is served from the
// cached merged snapshot without touching any shard lock.
func BenchmarkShardedRead(b *testing.B) {
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	}, dynahist.WithShards(benchShardWriters))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for range 100000 {
		if err := s.Insert(float64(rng.Intn(5001))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		_ = s.CDF(2500)
	}
}
