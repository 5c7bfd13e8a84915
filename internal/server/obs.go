package server

// The server's observability wiring over internal/obs. Collection is
// always on — counters and gauges are one atomic op and the latency
// trackers buffer into preallocated rings, so instrumentation rides
// every request without regressing the zero-allocation gates (see
// TestCachedQueryHitAllocs, which measures through this middleware).
// Config.Metrics gates only the two exposition endpoints:
//
//	GET /metrics   Prometheus text exposition — counters, gauges, and
//	               latency/size summaries at quantiles 0.5/0.9/0.99,
//	               each summary served by one of this repo's own DADO
//	               histograms (the HistogramTools dogfood).
//	GET /v1/stats  the same state as structured JSON
//	               (wire.StatsResponse) for clients and histcli -stats.

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"dynahist/internal/obs"
	"dynahist/internal/wire"
)

// endpointMetrics is one route's instrument set, resolved once at
// mount time so a request never pays a registry lookup.
type endpointMetrics struct {
	requests *obs.Counter
	inFlight *obs.Gauge
	latency  *obs.Tracker
	// status counts responses by class; index is status/100 (1..5).
	status [6]*obs.Counter
}

// serverMetrics holds every metric handle the serving paths touch,
// plus the obs registry that renders them.
type serverMetrics struct {
	obs   *obs.Registry
	start time.Time

	// Query cache (tuning.go): the ROADMAP's "hit ratio surfaced via a
	// stats endpoint" gap.
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheStalePuts *obs.Counter
	cacheEvictions *obs.Counter

	// Anti-entropy (peers.go).
	aeRounds        *obs.Counter
	aeAdopted       *obs.Counter
	aeReplicated    *obs.Counter
	aeSkipped       *obs.Counter
	aeFallbackPulls *obs.Counter
	peerFailures    map[string]*obs.Counter
	peerBackoffMS   map[string]*obs.Gauge

	// Self-tuning feedback (tuning.go).
	feedbackApplied *obs.Counter
	feedbackClamped *obs.Counter

	// Ingest batch-size distribution (server.go handleUpdate) and the
	// batches refused because the digest queue stayed full (wal.go).
	ingestBatch    *obs.Tracker
	ingestRejected *obs.Counter

	// Per-endpoint HTTP metrics, keyed by the short route name the
	// instrument middleware mounts under.
	epMu      sync.Mutex
	endpoints map[string]*endpointMetrics
}

// newServerMetrics registers the full metric inventory. Called from
// New after the WAL (if any) is open and before routes are mounted, so
// function-backed metrics can capture their sources directly.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		obs:   r,
		start: time.Now(),

		cacheHits:      r.Counter("dynahist_query_cache_hits_total", "Query responses served from the epoch-keyed cache."),
		cacheMisses:    r.Counter("dynahist_query_cache_misses_total", "Query responses evaluated because no cached response matched."),
		cacheStalePuts: r.Counter("dynahist_query_cache_stale_puts_total", "Cache stores dropped because a write landed while the response was being computed."),
		cacheEvictions: r.Counter("dynahist_query_cache_evictions_total", "Cached responses invalidated by an epoch advance."),

		aeRounds:        r.Counter("dynahist_antientropy_rounds_total", "Anti-entropy sync rounds attempted (one per peer per pass)."),
		aeAdopted:       r.Counter("dynahist_antientropy_adopted_total", "Own-site entries adopted from a peer replica (the rejoin path)."),
		aeReplicated:    r.Counter("dynahist_antientropy_replicated_total", "Other-site replicas stored or refreshed."),
		aeSkipped:       r.Counter("dynahist_antientropy_skipped_total", "Catalog rows skipped because local coverage was already current."),
		aeFallbackPulls: r.Counter("dynahist_antientropy_fallback_pulls_total", "Rows pulled via the per-entry endpoint after an incomplete batch fetch."),

		feedbackApplied: r.Counter("dynahist_feedback_applied_total", "Feedback records journaled by the self-tuning loop."),
		feedbackClamped: r.Counter("dynahist_feedback_clamped_total", "Feedback records whose bounded adjustment left a residual above 1% of the observed count."),

		ingestBatch:    r.Tracker("dynahist_ingest_batch_values", "Values per ingest batch."),
		ingestRejected: r.Counter("dynahist_ingest_rejected_total", "Ingest batches answered 503 because the digest queue stayed full for the whole bounded wait."),

		endpoints: make(map[string]*endpointMetrics),
	}
	r.GaugeFunc("dynahist_histograms", "Histograms currently registered.", func() float64 {
		return float64(s.reg.Len())
	})
	r.GaugeFunc("dynahist_uptime_seconds", "Seconds since the server was built.", func() float64 {
		return time.Since(m.start).Seconds()
	})
	r.CounterFunc("dynahist_shard_merges_total", "Merged views built from shard bucket lists: one per distribution read that follows a write. Point counts never merge.", s.reg.Merges)
	r.GaugeFunc("dynahist_query_cache_hit_ratio", "Cache hits over cache lookups; 0 before any lookup.", func() float64 {
		return m.cacheHitRatio()
	})
	if s.wal != nil {
		w := s.wal
		r.CounterFunc("dynahist_wal_appends_total", "WAL records appended (the last assigned LSN).", w.LastLSN)
		r.CounterFunc("dynahist_wal_fsyncs_total", "Successful WAL data fsyncs.", w.Fsyncs)
		r.CounterFunc("dynahist_wal_rotations_total", "WAL segment rotations.", w.Rotations)
		r.GaugeFunc("dynahist_wal_digested_lsn", "WAL position folded into the in-memory histograms.", func() float64 {
			return float64(w.DigestedLSN())
		})
		r.GaugeFunc("dynahist_wal_digest_lag", "Records appended but not yet digested (appended LSN minus digested LSN).", func() float64 {
			return float64(w.LastLSN() - w.DigestedLSN())
		})
	}
	if len(s.cfg.Peers) > 0 {
		m.peerFailures = make(map[string]*obs.Counter, len(s.cfg.Peers))
		m.peerBackoffMS = make(map[string]*obs.Gauge, len(s.cfg.Peers))
		for _, p := range s.cfg.Peers {
			m.peerFailures[p] = r.Counter(
				fmt.Sprintf("dynahist_antientropy_peer_failures_total{peer=%q}", p),
				"Failed sync rounds, by peer.")
			m.peerBackoffMS[p] = r.Gauge(
				fmt.Sprintf("dynahist_antientropy_peer_backoff_ms{peer=%q}", p),
				"Current backoff delay before the peer is retried, in milliseconds (0 when healthy).")
		}
	}
	return m
}

func (m *serverMetrics) cacheHitRatio() float64 {
	hits := m.cacheHits.Value()
	total := hits + m.cacheMisses.Value()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// endpoint resolves (or creates) one route's instrument set.
func (m *serverMetrics) endpoint(name string) *endpointMetrics {
	m.epMu.Lock()
	defer m.epMu.Unlock()
	if em, ok := m.endpoints[name]; ok {
		return em
	}
	em := &endpointMetrics{
		requests: m.obs.Counter(
			fmt.Sprintf("dynahist_http_requests_total{endpoint=%q}", name),
			"HTTP requests received, by endpoint."),
		inFlight: m.obs.Gauge(
			fmt.Sprintf("dynahist_http_in_flight{endpoint=%q}", name),
			"HTTP requests currently being handled, by endpoint."),
		// Latencies are observed in seconds but tracked at microsecond
		// resolution: the dynamic histograms resolve at unit granularity,
		// so unscaled sub-second values would all share one bucket.
		latency: m.obs.ScaledTracker(
			fmt.Sprintf("dynahist_http_request_seconds{endpoint=%q}", name),
			"HTTP request latency in seconds, by endpoint.", 1e6),
	}
	for class := 1; class <= 5; class++ {
		em.status[class] = m.obs.Counter(
			fmt.Sprintf("dynahist_http_responses_total{endpoint=%q,class=\"%dxx\"}", name, class),
			"HTTP responses sent, by endpoint and status class.")
	}
	m.endpoints[name] = em
	return em
}

// statusWriter captures the response status code for the status-class
// counters. Pooled so the hot path never allocates one; a handler that
// never calls WriteHeader implicitly answered 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// instrument wraps one route with the per-endpoint HTTP metrics:
// request count, in-flight gauge, latency tracker, status-class
// counter. The metric handles are resolved once here, at mount time;
// per request the overhead is four atomic ops, a pooled status writer,
// and one buffered latency observation — nothing that allocates.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.metrics.endpoint(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		em.requests.Inc()
		em.inFlight.Add(1)
		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, http.StatusOK
		start := time.Now()
		h(sw, r)
		em.latency.Observe(time.Since(start).Seconds())
		em.inFlight.Add(-1)
		if class := sw.status / 100; class >= 1 && class <= 5 {
			em.status[class].Inc()
		}
		sw.ResponseWriter = nil
		swPool.Put(sw)
	}
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format. Mounted only when Config.Metrics is set.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.obs.WritePrometheus(w); err != nil {
		s.log.Printf("metrics: writing exposition: %v", err)
	}
}

// handleStats serves GET /v1/stats: the operator-facing structured
// snapshot of the same state /metrics exposes. Mounted only when
// Config.Metrics is set.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	resp := wire.StatsResponse{
		SiteID:        s.cfg.SiteID,
		UptimeSeconds: time.Since(m.start).Seconds(),
		Histograms:    s.reg.Len(),
		Endpoints:     make(map[string]wire.EndpointStats, len(m.endpoints)),
		Cache: wire.CacheStats{
			Hits:      m.cacheHits.Value(),
			Misses:    m.cacheMisses.Value(),
			StalePuts: m.cacheStalePuts.Value(),
			Evictions: m.cacheEvictions.Value(),
			HitRatio:  m.cacheHitRatio(),
		},
		AntiEntropy: wire.AntiEntropyStats{
			Rounds:        m.aeRounds.Value(),
			Adopted:       m.aeAdopted.Value(),
			Replicated:    m.aeReplicated.Value(),
			Skipped:       m.aeSkipped.Value(),
			FallbackPulls: m.aeFallbackPulls.Value(),
		},
		Tuning: wire.TuningStats{
			Enabled: s.cfg.Tuning.Enabled,
			Applied: m.feedbackApplied.Value(),
			Clamped: m.feedbackClamped.Value(),
		},
	}
	bq := m.ingestBatch.Quantiles(obs.TrackerQuantiles[0], obs.TrackerQuantiles[1], obs.TrackerQuantiles[2])
	resp.Ingest = wire.IngestStats{
		Batches:  m.ingestBatch.Count(),
		Values:   m.ingestBatch.Sum(),
		BatchP50: bq[0],
		BatchP90: bq[1],
		BatchP99: bq[2],
	}
	if s.wal != nil {
		appended, digested := s.wal.LastLSN(), s.wal.DigestedLSN()
		resp.WAL = wire.WALStats{
			Enabled:     true,
			AppendedLSN: appended,
			DigestedLSN: digested,
			DigestLag:   appended - digested,
			Fsyncs:      s.wal.Fsyncs(),
			Rotations:   s.wal.Rotations(),
		}
	}
	for _, p := range s.cfg.Peers {
		resp.AntiEntropy.Peers = append(resp.AntiEntropy.Peers, wire.PeerSyncStats{
			Peer:           p,
			Failures:       m.peerFailures[p].Value(),
			BackoffSeconds: float64(m.peerBackoffMS[p].Value()) / 1000,
		})
	}
	m.epMu.Lock()
	for name, em := range m.endpoints {
		lq := em.latency.Quantiles(obs.TrackerQuantiles[0], obs.TrackerQuantiles[1], obs.TrackerQuantiles[2])
		st := wire.EndpointStats{
			Requests:   em.requests.Value(),
			InFlight:   em.inFlight.Value(),
			LatencyP50: lq[0],
			LatencyP90: lq[1],
			LatencyP99: lq[2],
		}
		for class := 1; class <= 5; class++ {
			if v := em.status[class].Value(); v > 0 {
				if st.Status == nil {
					st.Status = make(map[string]uint64, 2)
				}
				st.Status[fmt.Sprintf("%dxx", class)] = v
			}
		}
		resp.Endpoints[name] = st
	}
	m.epMu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
