package main

// The -json / -compare modes: a fixed micro-benchmark smoke suite over
// the ingest, serving and global-read spines, emitted as machine-
// readable JSON so CI can record one point per PR of the performance
// trajectory and diff a fresh run against the committed baseline (the
// newest BENCH_*.json at the repo root).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"dynahist"
	"dynahist/internal/distgen"
	"dynahist/internal/server"
	"dynahist/internal/tuner"
	"dynahist/internal/wal"
	"dynahist/internal/wire"
)

// BenchPoint is one benchmark's result in the trajectory file.
type BenchPoint struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BenchReport is the whole trajectory point: the suite's results plus
// enough provenance to interpret them.
type BenchReport struct {
	Suite      string       `json:"suite"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	Benchmarks []BenchPoint `json:"benchmarks"`
}

// benchSuite is the fixed smoke suite. Names are stable identifiers:
// the compare mode matches baseline to fresh run by name, so renaming
// one breaks the trajectory for that series.
var benchSuite = []struct {
	name string
	run  func(b *testing.B)
}{
	{"dado_insert_batch_256", benchDADOInsertBatch},
	{"dc_insert", benchDCInsert},
	{"wire_decode_batch_512", benchWireDecode},
	{"sharded_insert_batch_256", benchShardedInsertBatch},
	{"wal_append_256", benchWALAppend},
	{"cached_query_hit", benchCachedQueryHit},
	{"metrics_scrape", benchMetricsScrape},
	{"sharded_total_after_write", benchShardedAfterWrite(false)},
	{"sharded_view_after_write", benchShardedAfterWrite(true)},
	{"fanout_describe_2_sites", benchFanoutDescribe},
	{"tuned_view_after_write", benchTunedViewAfterWrite},
}

func benchDADOInsertBatch(b *testing.B) {
	hh, err := dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	if err != nil {
		b.Fatal(err)
	}
	h := hh.(dynahist.BatchWriter)
	rng := rand.New(rand.NewSource(1))
	batch := make([]float64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = float64(rng.Intn(5001))
		}
		if err := h.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDCInsert(b *testing.B) {
	h, err := dynahist.New(dynahist.KindDC, dynahist.WithMemory(1024))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Insert(float64(rng.Intn(5001))); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWireDecode(b *testing.B) {
	vs := make([]float64, 512)
	rng := rand.New(rand.NewSource(1))
	for i := range vs {
		vs[i] = rng.Float64() * 1000
	}
	data, err := wire.EncodeBatch(vs)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]float64, 0, len(vs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wire.DecodeBatchInto(buf, data)
		if err != nil || len(out) != len(vs) {
			b.Fatalf("decode: len %d err %v", len(out), err)
		}
	}
}

func benchShardedInsertBatch(b *testing.B) {
	h, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	}, dynahist.WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := make([]float64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = float64(rng.Intn(5001))
		}
		if err := h.InsertBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceSharded returns a 4-shard DADO (1 KB per shard) preloaded
// with the paper's reference data, and that data, shuffled, as the
// value stream later writes replay.
func referenceSharded(b *testing.B) (*dynahist.Sharded, []float64) {
	ints, err := distgen.Generate(distgen.Reference(1))
	if err != nil {
		b.Fatal(err)
	}
	vs := make([]float64, len(ints))
	for i, v := range distgen.Shuffled(ints, 1) {
		vs[i] = float64(v)
	}
	h, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	}, dynahist.WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	if err := h.InsertBatch(vs); err != nil {
		b.Fatal(err)
	}
	return h, vs
}

// benchShardedAfterWrite measures a 256-value InsertBatch followed by
// one read — Total, or View when view is set — on a 4-shard DADO (1 KB
// per shard) preloaded with the paper's reference data. The pair of
// series prices the §8 merge: a Total is an exact shard sum, while a
// View after a write must superpose every shard's buckets again.
func benchShardedAfterWrite(view bool) func(b *testing.B) {
	return func(b *testing.B) {
		h, vs := referenceSharded(b)
		const batch = 256
		b.ReportAllocs()
		for off := 0; b.Loop(); off = (off + batch) % (len(vs) - batch) {
			if err := h.InsertBatch(vs[off : off+batch]); err != nil {
				b.Fatal(err)
			}
			if !view {
				h.Total()
			} else if _, err := h.View(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchTunedViewAfterWrite measures the read a feedback-tuned entry
// pays right after a write: a 512-value InsertBatch on a 4-shard DADO
// (1 KB per shard) preloaded with the paper's reference data, then the
// merged View and the overlay build the server's tuned read runs on it
// — the view flattened to a Store, an 8-record feedback journal
// replayed, and the Store wrapped back as a servable view.
func benchTunedViewAfterWrite(b *testing.B) {
	h, vs := referenceSharded(b)
	// The journal: eight ranges observed exactly against the data.
	v, err := h.View()
	if err != nil {
		b.Fatal(err)
	}
	t := tuner.New(tuner.Config{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		lo := float64(rng.Intn(4500))
		hi := lo + float64(10+rng.Intn(490))
		obs := 0.0
		for _, x := range vs {
			if x >= lo && x <= hi {
				obs++
			}
		}
		rec := tuner.Record{Lo: lo, Hi: hi, Estimated: v.EstimateRange(lo, hi), Observed: obs}
		if err := t.Observe(rec); err != nil {
			b.Fatal(err)
		}
	}
	const batch = 512
	b.ReportAllocs()
	for off := 0; b.Loop(); off = (off + batch) % (len(vs) - batch) {
		if err := h.InsertBatch(vs[off : off+batch]); err != nil {
			b.Fatal(err)
		}
		v, err := h.View()
		if err != nil {
			b.Fatal(err)
		}
		st, err := tuner.StoreOfView(v)
		if err != nil {
			b.Fatal(err)
		}
		t.ApplyTo(st)
		if _, err := tuner.ViewOfStore(st); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFanoutDescribe measures the client-side compute of a two-site
// global read: restore both sites' snapshot envelopes (4 DADO shards at
// 1 KB each, half of 200k reference points per site), superpose them
// into the §8 union, reduce it to 256 buckets and build the union's
// view — the steps a client.Fanout.Describe runs after its fetches.
func benchFanoutDescribe(b *testing.B) {
	cfg := distgen.Reference(1)
	cfg.Points = 200_000
	ints, err := distgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	vs := make([]float64, len(ints))
	for i, v := range distgen.Shuffled(ints, 1) {
		vs[i] = float64(v)
	}
	var envs [2][]byte
	for s := range envs {
		h, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
			return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
		}, dynahist.WithShards(4))
		if err != nil {
			b.Fatal(err)
		}
		half := len(vs) / 2
		if err := h.InsertBatch(vs[s*half : (s+1)*half]); err != nil {
			b.Fatal(err)
		}
		if envs[s], err = h.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	sites := make([]dynahist.Histogram, len(envs))
	b.ReportAllocs()
	for b.Loop() {
		for s, env := range envs {
			if sites[s], err = dynahist.Restore(env); err != nil {
				b.Fatal(err)
			}
		}
		u, err := dynahist.Superpose(sites...)
		if err != nil {
			b.Fatal(err)
		}
		if u, err = dynahist.Reduce(u, 256); err != nil {
			b.Fatal(err)
		}
		g, err := dynahist.NewStaticFromBuckets(u)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.View(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWALAppend measures the durable-ingest append path: framing,
// CRC and the file write for a 256-value batch. SyncNone keeps fsync
// latency (pure device cost, wildly machine-dependent) out of the
// series; the huge segment threshold keeps rotation out of the loop.
func benchWALAppend(b *testing.B) {
	l, err := wal.Open(wal.Options{Dir: b.TempDir(), Sync: wal.SyncNone, SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	vs := make([]float64, 256)
	rng := rand.New(rand.NewSource(1))
	for i := range vs {
		vs[i] = float64(rng.Intn(5001))
	}
	data, err := wire.EncodeBatch(vs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(wal.OpInsert, "bench", data); err != nil {
			b.Fatal(err)
		}
	}
}

// discardResponseWriter sinks handler output without allocating, so
// the cached-query benchmark measures the handler and nothing else.
type discardResponseWriter struct {
	h http.Header
	n int
}

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) WriteHeader(int)             {}
func (w *discardResponseWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// benchCachedQueryHit measures the hot repeated-query serving path
// through the real router: body read into a pooled buffer, epoch load,
// cache lookup, cached summary bytes written back. The handler's
// steady state is allocation-free (internal/server's alloc gate pins
// that); the single small allocation here is the mux's route-match
// state.
func benchCachedQueryHit(b *testing.B) {
	s, err := server.New(server.Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Registry().Create(wire.CreateRequest{
		Name: "bench", Family: server.FamilyDADO, MemBytes: 1024, Shards: 2,
	}); err != nil {
		b.Fatal(err)
	}
	h, err := s.Registry().Histogram("bench")
	if err != nil {
		b.Fatal(err)
	}
	vs := make([]float64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range vs {
		vs[i] = float64(rng.Intn(5001))
	}
	if err := h.InsertBatch(vs); err != nil {
		b.Fatal(err)
	}

	body := bytes.NewReader([]byte(`{"quantiles":[0.5,0.9],"cdf":[2500],"ranges":[{"lo":100,"hi":4000}]}`))
	req := httptest.NewRequest("POST", "/v1/h/bench/query", nil)
	req.Body = io.NopCloser(body)
	handler := s.Handler()
	w := &discardResponseWriter{h: make(http.Header)}
	serve := func() {
		if _, err := body.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		handler.ServeHTTP(w, req)
	}
	serve() // warm: first call evaluates and populates the cache
	if w.n == 0 {
		b.Fatal("warm query wrote nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// benchMetricsScrape measures GET /metrics on a metrics-enabled server
// carrying realistic state: a populated registry, endpoint latency
// trackers warmed by traffic, cache counters past zero. The scrape is
// off every request path, so its cost is allowed to be allocation-
// heavy — this series exists to catch it growing superlinearly as
// metrics are added.
func benchMetricsScrape(b *testing.B) {
	s, err := server.New(server.Config{Logger: log.New(io.Discard, "", 0), Metrics: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	handler := s.Handler()
	w := &discardResponseWriter{h: make(http.Header)}

	// Traffic so the scrape covers live series, not an empty registry.
	createBody := bytes.NewReader([]byte(`{"name":"bench","family":"dado","mem_bytes":1024}`))
	createReq := httptest.NewRequest("POST", "/v1/h", io.NopCloser(createBody))
	handler.ServeHTTP(w, createReq)
	insertBody := bytes.NewReader([]byte(`{"values":[1,2,3,4,5,6,7,8]}`))
	queryBody := bytes.NewReader([]byte(`{"quantiles":[0.5]}`))
	insertReq := httptest.NewRequest("POST", "/v1/h/bench/insert", nil)
	queryReq := httptest.NewRequest("POST", "/v1/h/bench/query", nil)
	for i := 0; i < 64; i++ {
		if _, err := insertBody.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		insertReq.Body = io.NopCloser(insertBody)
		handler.ServeHTTP(w, insertReq)
		if _, err := queryBody.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		queryReq.Body = io.NopCloser(queryBody)
		handler.ServeHTTP(w, queryReq)
	}

	scrapeReq := httptest.NewRequest("GET", "/metrics", nil)
	w.n = 0
	handler.ServeHTTP(w, scrapeReq)
	if w.n == 0 {
		b.Fatal("warm scrape wrote nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handler.ServeHTTP(w, scrapeReq)
	}
}

// runBenchSuite executes the smoke suite once and collects the report.
func runBenchSuite() BenchReport {
	rep := BenchReport{
		Suite:     "ingest-smoke-v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, bench := range benchSuite {
		r := testing.Benchmark(bench.run)
		rep.Benchmarks = append(rep.Benchmarks, BenchPoint{
			Name:        bench.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return rep
}

// writeBenchJSON runs the suite and writes the JSON report.
func writeBenchJSON(stdout io.Writer) error {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(runBenchSuite())
}

// compareBench runs the suite and diffs it against the baseline file,
// benchstat-style. Slowdowns beyond warnFactor print a WARN line; the
// comparison never fails the build (micro-benchmarks on shared CI
// runners are too noisy for a hard gate), it exists to make a real
// regression loud in the log.
func compareBench(baselinePath string, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base BenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	baseBy := make(map[string]BenchPoint, len(base.Benchmarks))
	for _, p := range base.Benchmarks {
		baseBy[p.Name] = p
	}

	const warnFactor = 1.20
	fresh := runBenchSuite()
	fmt.Fprintf(stdout, "%-28s %14s %14s %8s\n", "benchmark", "base ns/op", "now ns/op", "delta")
	for _, p := range fresh.Benchmarks {
		b, ok := baseBy[p.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-28s %14s %14.1f %8s\n", p.Name, "(new)", p.NsPerOp, "")
			continue
		}
		delta := p.NsPerOp/b.NsPerOp - 1
		fmt.Fprintf(stdout, "%-28s %14.1f %14.1f %+7.1f%%\n", p.Name, b.NsPerOp, p.NsPerOp, delta*100)
		if p.NsPerOp > b.NsPerOp*warnFactor {
			fmt.Fprintf(stderr, "WARN: %s slowed by %.1f%% (>%.0f%% threshold)\n",
				p.Name, delta*100, (warnFactor-1)*100)
		}
		if b.AllocsPerOp == 0 && p.AllocsPerOp > 0 {
			fmt.Fprintf(stderr, "WARN: %s now allocates (%d allocs/op, baseline 0)\n",
				p.Name, p.AllocsPerOp)
		}
	}
	return nil
}
