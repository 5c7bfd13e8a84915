package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynahist/internal/wal"
	"dynahist/internal/wire"
)

// postJSON drives one request through the full mux (instrumented
// routes included).
func postJSON(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestMetricsEndpointGated proves the exposition endpoints exist only
// under Config.Metrics while collection itself is always on.
func TestMetricsEndpointGated(t *testing.T) {
	s, err := New(Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := postJSON(t, s, "GET", "/metrics", ""); rec.Code != 404 {
		t.Fatalf("GET /metrics without -metrics: status %d, want 404", rec.Code)
	}
	if rec := postJSON(t, s, "GET", "/v1/stats", ""); rec.Code != 404 {
		t.Fatalf("GET /v1/stats without -metrics: status %d, want 404", rec.Code)
	}
	// Collection ran regardless: the 404s themselves aren't attributed
	// to a route, but a real request is.
	postJSON(t, s, "GET", "/healthz", "")
	if got := s.metrics.endpoint("healthz").requests.Value(); got != 1 {
		t.Fatalf("healthz requests = %d, want 1 (collection must be on without the flag)", got)
	}
}

// TestMetricsExposition drives real traffic through an instrumented
// server and checks the scrape covers the acceptance surface: cache
// hit ratio, per-endpoint latency quantiles, status classes, ingest
// distribution.
func TestMetricsExposition(t *testing.T) {
	s, err := New(Config{Logger: log.New(io.Discard, "", 0), Metrics: true, Tuning: TuningConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if rec := postJSON(t, s, "POST", "/v1/h", `{"name":"h","family":"dado","mem_bytes":1024}`); rec.Code != 201 {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if rec := postJSON(t, s, "POST", "/v1/h/h/insert", `{"values":[1,2,3,4,5,6,7,8]}`); rec.Code != 200 {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body)
	}
	// Same query twice: one miss, one hit.
	for i := 0; i < 2; i++ {
		if rec := postJSON(t, s, "POST", "/v1/h/h/query", `{"quantiles":[0.5]}`); rec.Code != 200 {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if rec := postJSON(t, s, "POST", "/v1/h/h/feedback", `{"lo":1,"hi":8,"observed":8}`); rec.Code != 200 {
		t.Fatalf("feedback: %d %s", rec.Code, rec.Body)
	}
	// A 404 for the status-class counter.
	postJSON(t, s, "GET", "/v1/h/missing", "")

	rec := postJSON(t, s, "GET", "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE dynahist_query_cache_hit_ratio gauge",
		"dynahist_query_cache_hit_ratio 0.5",
		"dynahist_query_cache_hits_total 1",
		"dynahist_query_cache_misses_total 1",
		`dynahist_http_requests_total{endpoint="query"} 2`,
		`dynahist_http_request_seconds{endpoint="query",quantile="0.5"}`,
		`dynahist_http_request_seconds{endpoint="query",quantile="0.99"}`,
		`dynahist_http_responses_total{endpoint="info",class="4xx"} 1`,
		"# TYPE dynahist_ingest_batch_values summary",
		"dynahist_ingest_batch_values_count 1",
		"dynahist_ingest_batch_values_sum 8",
		"dynahist_feedback_applied_total 1",
		"dynahist_histograms 1",
		"# TYPE dynahist_antientropy_rounds_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestStatsEndpoint checks the structured-JSON face of the same state,
// including the WAL block with its digest lag.
func TestStatsEndpoint(t *testing.T) {
	s, err := New(Config{
		Logger:  log.New(io.Discard, "", 0),
		Metrics: true,
		WAL:     wal.Options{Dir: t.TempDir(), Sync: wal.SyncAlways},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if rec := postJSON(t, s, "POST", "/v1/h", `{"name":"h","family":"dado","mem_bytes":1024}`); rec.Code != 201 {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if rec := postJSON(t, s, "POST", "/v1/h/h/insert", `{"values":[1,2,3]}`); rec.Code != 200 {
		t.Fatalf("insert: %d %s", rec.Code, rec.Body)
	}
	// The digester drains asynchronously, and each digested record bumps
	// the query epoch; wait for lag 0 first so the two queries below hit
	// one stable epoch (one miss, one hit) and the lag assertion is
	// deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for s.wal.LastLSN() != s.wal.DigestedLSN() {
		if time.Now().After(deadline) {
			t.Fatal("digester never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	postJSON(t, s, "POST", "/v1/h/h/query", `{"quantiles":[0.5]}`)
	postJSON(t, s, "POST", "/v1/h/h/query", `{"quantiles":[0.5]}`)

	rec := postJSON(t, s, "GET", "/v1/stats", "")
	if rec.Code != 200 {
		t.Fatalf("GET /v1/stats: %d %s", rec.Code, rec.Body)
	}
	var st wire.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.Histograms != 1 {
		t.Fatalf("histograms = %d, want 1", st.Histograms)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.HitRatio != 0.5 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss / ratio 0.5", st.Cache)
	}
	if !st.WAL.Enabled || st.WAL.AppendedLSN == 0 || st.WAL.DigestLag != 0 {
		t.Fatalf("wal stats = %+v, want enabled, appends > 0, lag 0", st.WAL)
	}
	if st.WAL.Fsyncs == 0 {
		t.Fatalf("wal stats = %+v, want fsyncs > 0 under SyncAlways", st.WAL)
	}
	if st.Ingest.Batches != 1 || st.Ingest.Values != 3 {
		t.Fatalf("ingest stats = %+v, want 1 batch of 3 values", st.Ingest)
	}
	ep, ok := st.Endpoints["query"]
	if !ok {
		t.Fatalf("stats missing query endpoint: %v", st.Endpoints)
	}
	if ep.Requests != 2 || ep.Status["2xx"] != 2 {
		t.Fatalf("query endpoint stats = %+v, want 2 requests, 2 2xx", ep)
	}
	if ep.LatencyP99 < ep.LatencyP50 || ep.LatencyP50 <= 0 {
		t.Fatalf("query latency quantiles implausible: %+v", ep)
	}

	// The wal/status satellite: DigestLag is reported directly.
	rec = postJSON(t, s, "GET", "/v1/wal/status", "")
	var ws wire.WALStatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ws); err != nil {
		t.Fatalf("decoding wal status: %v", err)
	}
	if ws.DigestLag != ws.LagRecords {
		t.Fatalf("wal status DigestLag = %d, LagRecords = %d, want equal", ws.DigestLag, ws.LagRecords)
	}
}

// scrapeCounter reads one unlabelled counter off GET /metrics.
func scrapeCounter(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	rec := postJSON(t, s, "GET", "/metrics", "")
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s sample %q: %v", name, v, err)
			}
			return n
		}
	}
	t.Fatalf("exposition has no %s sample:\n%s", name, rec.Body)
	return 0
}

// TestShardMergesCounter checks dynahist_shard_merges_total: ingest
// acks, digestion, info, list and the envelope build no merged view,
// and one query after a write builds exactly one.
func TestShardMergesCounter(t *testing.T) {
	s, err := New(Config{
		Logger:  log.New(io.Discard, "", 0),
		Metrics: true,
		WAL:     wal.Options{Dir: t.TempDir(), Sync: wal.SyncNone},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := postJSON(t, s, "POST", "/v1/h", `{"name":"h","family":"dado","mem_bytes":1024,"shards":4}`); rec.Code != 201 {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	const merges = "dynahist_shard_merges_total"
	before := scrapeCounter(t, s, merges)
	for i := range 16 {
		body := fmt.Sprintf(`{"values":[%d,%d,%d,%d]}`, i, 2*i, 3*i, 4*i)
		if rec := postJSON(t, s, "POST", "/v1/h/h/insert", body); rec.Code != 200 {
			t.Fatalf("insert %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	waitDigested(t, s)
	for _, path := range []string{"/v1/h/h", "/v1/h", "/v1/h/h/envelope"} {
		if rec := postJSON(t, s, "GET", path, ""); rec.Code != 200 {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	if got := scrapeCounter(t, s, merges); got != before {
		t.Fatalf("%s moved %d → %d under ingest with no distribution reads", merges, before, got)
	}
	if rec := postJSON(t, s, "POST", "/v1/h/h/query", `{"quantiles":[0.5],"cdf":[10]}`); rec.Code != 200 {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	if got := scrapeCounter(t, s, merges); got != before+1 {
		t.Fatalf("%s after one query = %d, want %d", merges, got, before+1)
	}
}
