package client

import (
	"context"
	"errors"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dynahist/internal/server"
)

// newSite spins up one in-process peer-role histserved node.
func newSite(t *testing.T, siteID string) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Config{SiteID: siteID, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })
	return s, ts
}

// TestDefaultClientHasTimeout pins the nil-client hardening: New(url,
// nil) must not hand out http.DefaultClient, whose zero timeout hangs
// forever on a wedged server.
func TestDefaultClientHasTimeout(t *testing.T) {
	c := New("http://localhost:1", nil)
	if c.http == http.DefaultClient {
		t.Fatal("New(url, nil) uses http.DefaultClient (no timeout)")
	}
	if c.http.Timeout == 0 {
		t.Fatal("default client has no timeout")
	}
	// A caller-supplied client is used exactly as given.
	own := &http.Client{}
	if got := New("http://localhost:1", own).http; got != own {
		t.Fatal("caller-supplied client was replaced")
	}
}

// TestGetRetriesTransientFailures pins the read retry policy: a GET
// that bounces off a 503 twice succeeds on the third attempt, and a
// POST is never replayed.
func TestGetRetriesTransientFailures(t *testing.T) {
	var gets, posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			if gets.Add(1) < 3 {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte(`{"total":42}`))
			return
		}
		posts.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL, nil)
	total, err := c.Total(context.Background(), "x")
	if err != nil {
		t.Fatalf("GET after transient 503s: %v", err)
	}
	if total != 42 || gets.Load() != 3 {
		t.Fatalf("total = %v after %d attempts, want 42 after 3", total, gets.Load())
	}

	if _, err := c.Insert(context.Background(), "x", []float64{1}); err == nil {
		t.Fatal("POST through a 502: want error")
	}
	if posts.Load() != 1 {
		t.Fatalf("POST attempted %d times, want exactly 1 (mutations must not be replayed)", posts.Load())
	}
}

// TestGetRetryHonoursContext pins that a cancelled context cuts the
// retry loop short instead of sleeping through the backoff.
func TestGetRetryHonoursContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New(ts.URL, nil).Total(ctx, "x")
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ran %v past a 50ms context", elapsed)
	}
}

// TestGetRetrySkipsAfterTimeoutBurn pins the retry budget: an attempt
// that burns the HTTP client's whole per-attempt timeout signals a dead
// or hung server, and the remaining retries are skipped — a fan-out
// caller degrades to Partial within roughly one timeout, not three
// timeouts plus backoff.
func TestGetRetrySkipsAfterTimeoutBurn(t *testing.T) {
	var gets atomic.Int64
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		select {
		case <-hang:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(ts.Close)

	const timeout = 100 * time.Millisecond
	c := New(ts.URL, &http.Client{Timeout: timeout})
	start := time.Now()
	_, err := c.Total(context.Background(), "x")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("GET against a hung server: want error")
	}
	if gets.Load() != 1 {
		t.Fatalf("hung server was attempted %d times, want 1 (retrying a timeout only multiplies the wait)", gets.Load())
	}
	if elapsed > 3*timeout {
		t.Fatalf("GET took %v against a hung server, want about one %v timeout", elapsed, timeout)
	}
}

// TestGetRetryRespectsDeadline pins the deadline cap: when the
// caller's context cannot outlive the next backoff, the retry loop
// returns the last real failure instead of sleeping into the deadline
// and surfacing context.DeadlineExceeded.
func TestGetRetryRespectsDeadline(t *testing.T) {
	var gets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)

	// Attempts land at ~0ms and ~100ms; the next backoff (200ms) cannot
	// fit before the 250ms deadline, so the loop must stop there.
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	_, err := New(ts.URL, nil).Total(ctx, "x")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the server's 503 (not a deadline error from sleeping out the budget)", err)
	}
	if n := gets.Load(); n != 2 {
		t.Fatalf("server saw %d attempts, want 2 (third backoff exceeds the deadline)", n)
	}
}

// TestInsertAckCarriesDigestedLSN pins the ack watermark satellite on
// a non-WAL server: the ack decodes (DigestedLSN 0 means immediately
// readable) and the total is right.
func TestInsertAckCarriesDigestedLSN(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	if _, err := c.Create(ctx, CreateOptions{Name: "h", Family: FamilyDADO}); err != nil {
		t.Fatal(err)
	}
	ack, err := c.InsertAck(ctx, "h", []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Total != 3 || ack.DigestedLSN != 0 {
		t.Fatalf("ack = %+v, want Total 3 DigestedLSN 0", ack)
	}
	ack, err = c.InsertBinaryAck(ctx, "h", []float64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Total != 5 {
		t.Fatalf("binary ack total = %v, want 5", ack.Total)
	}
}

// TestFanoutDescribe drives the whole scatter-gather read path over
// three in-process sites: each ingests one slice of the keyspace, and
// the global Describe must agree with the exact union of the slices.
func TestFanoutDescribe(t *testing.T) {
	var urls []string
	for _, site := range []string{"s0", "s1", "s2"} {
		_, ts := newSite(t, site)
		urls = append(urls, ts.URL)
	}
	f := NewFanout(urls, nil)
	ctx := context.Background()

	if err := f.CreateAll(ctx, CreateOptions{Name: "lat", Family: FamilyDADO, MemBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	// CreateAll is idempotent: a second pass hits 409s everywhere and
	// still succeeds.
	if err := f.CreateAll(ctx, CreateOptions{Name: "lat", Family: FamilyDADO, MemBytes: 2048}); err != nil {
		t.Fatalf("second CreateAll: %v", err)
	}

	// Site i holds keys congruent to i mod 3 of 0..2999.
	perSite := make([][]float64, 3)
	for v := 0; v < 3000; v++ {
		perSite[v%3] = append(perSite[v%3], float64(v))
	}
	for i, u := range urls {
		if _, err := New(u, nil).InsertBinary(ctx, "lat", perSite[i]); err != nil {
			t.Fatal(err)
		}
	}

	g, err := f.Describe(ctx, "lat", QuerySpec{
		Quantiles: []float64{0.5},
		CDF:       []float64{1499.5, 2999},
	}, DescribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Partial {
		t.Fatalf("Partial = true with all sites up: %+v", g.Sites)
	}
	if g.Total != 3000 {
		t.Fatalf("global total = %v, want 3000", g.Total)
	}
	if math.Abs(g.CDF[0]-0.5) > 0.05 {
		t.Fatalf("global CDF(1499.5) = %v, want ≈0.5", g.CDF[0])
	}
	if g.CDF[1] < 0.99 {
		t.Fatalf("global CDF(2999) = %v, want ≈1", g.CDF[1])
	}
	if math.Abs(g.Quantiles[0]-1500) > 150 {
		t.Fatalf("global median = %v, want ≈1500", g.Quantiles[0])
	}
	for i, sr := range g.Sites {
		if sr.Err != nil || sr.Total != 1000 {
			t.Fatalf("site %d result %+v, want Total 1000", i, sr)
		}
	}

	// A bucket budget reduces the union without breaking the answer.
	g2, err := f.Describe(ctx, "lat", QuerySpec{Buckets: true, CDF: []float64{1499.5}}, DescribeOptions{MaxBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Buckets) == 0 || len(g2.Buckets) > 16 {
		t.Fatalf("reduced union has %d buckets, want 1..16", len(g2.Buckets))
	}
	if math.Abs(g2.CDF[0]-0.5) > 0.1 {
		t.Fatalf("reduced CDF(1499.5) = %v, want ≈0.5", g2.CDF[0])
	}
}

// TestFanoutPartialAndTotalFailure pins graceful degradation: one dead
// site flags the answer Partial but still answers from the rest; all
// sites dead is an error.
func TestFanoutPartialAndTotalFailure(t *testing.T) {
	_, live := newSite(t, "s0")
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(dead.Close)

	ctx := context.Background()
	if _, err := New(live.URL, nil).Create(ctx, CreateOptions{Name: "lat", Family: FamilyDADO}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(live.URL, nil).Insert(ctx, "lat", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}

	f := NewFanout([]string{live.URL, dead.URL}, nil)
	g, err := f.Describe(ctx, "lat", QuerySpec{}, DescribeOptions{})
	if err != nil {
		t.Fatalf("partial read: %v", err)
	}
	if !g.Partial {
		t.Fatal("Partial = false with a dead site")
	}
	if g.Total != 4 {
		t.Fatalf("partial total = %v, want 4 (the live site)", g.Total)
	}
	survivors := 0.0
	for _, sr := range g.Sites {
		if sr.Err == nil {
			survivors += sr.Total
		}
	}
	if g.Total != survivors {
		t.Fatalf("partial total = %v, want the surviving sites' sum %v", g.Total, survivors)
	}
	if g.Sites[0].Err != nil || g.Sites[1].Err == nil {
		t.Fatalf("site errors = [%v, %v], want [nil, non-nil]", g.Sites[0].Err, g.Sites[1].Err)
	}

	all := NewFanout([]string{dead.URL}, nil)
	if _, err := all.Describe(ctx, "lat", QuerySpec{}, DescribeOptions{}); err == nil {
		t.Fatal("all-sites-dead read: want error")
	}
}
