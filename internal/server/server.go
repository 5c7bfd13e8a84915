package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynahist"
	"dynahist/internal/wal"
	"dynahist/internal/wire"
)

// maxBodyBytes caps ingest request bodies (~8M values binary).
const maxBodyBytes = 64 << 20

// Config parameterises a Server.
type Config struct {
	// CatalogDir, when non-empty, enables snapshot-backed recovery: the
	// registry is restored from it at startup and checkpointed into it
	// by CheckpointNow and the periodic loop.
	CatalogDir string
	// CheckpointEvery is the period of the background checkpoint loop;
	// zero disables the loop (checkpoints then happen only via
	// CheckpointNow and on Close).
	CheckpointEvery time.Duration
	// Logger receives recovery and checkpoint diagnostics; nil logs to
	// the standard logger.
	Logger *log.Logger
	// WAL, when WAL.Dir is non-empty, enables durable ingest: mutating
	// requests are appended to a segmented write-ahead log and acked
	// once durable per WAL.Sync, a background digester folds them into
	// the histograms, and recovery replays the tail past the last
	// checkpoint. See internal/wal.Options.
	WAL wal.Options

	// SiteID names this node in a multi-node deployment (paper §8: each
	// site maintains histograms over its own slice, and any reader can
	// union them losslessly into a global view). Required when Peers is
	// set; with no peers it merely tags the envelope endpoints.
	SiteID string
	// Peers are the base URLs ("http://host:port") of the other sites.
	// When non-empty the server runs the anti-entropy loop: it
	// periodically pulls each peer's site catalog, stores fresher
	// replicas of other sites' histograms, and adopts a peer's replica
	// of its *own* site when that replica is ahead of local state — the
	// rejoin path, which catches a restarted node up from snapshot
	// envelopes instead of re-ingested raw data.
	Peers []string
	// AntiEntropyEvery is the peer sync period; zero defaults to 1s.
	AntiEntropyEvery time.Duration
	// PeerTimeout bounds each HTTP call to a peer; zero defaults to 2s.
	PeerTimeout time.Duration

	// Tuning enables the query-feedback self-tuning loop (see
	// internal/tuner and the handlers in tuning.go).
	Tuning TuningConfig

	// Metrics mounts the observability exposition endpoints: GET
	// /metrics (Prometheus text format) and GET /v1/stats (structured
	// JSON). Collection itself is always on — it is allocation-free on
	// the serving paths — so enabling this mid-fleet exposes history,
	// not just data from the flag-flip onward.
	Metrics bool
}

// Server is the histserved HTTP serving layer: a histogram registry,
// its REST handlers, and the checkpoint loop. Create one with New,
// mount Handler on an http.Server, and Close it on shutdown for a
// final checkpoint.
type Server struct {
	cfg     Config
	reg     *Registry
	mux     *http.ServeMux
	log     *log.Logger
	metrics *serverMetrics

	// catMu serialises catalog writes against each other and against
	// deletes, so a checkpoint pass cannot resurrect a file removed by
	// a concurrent DELETE.
	catMu sync.Mutex

	// Durable-ingest state (nil/zero when Config.WAL.Dir is empty).
	wal        *wal.Log
	digestCh   chan wal.Record
	digestDone chan struct{}
	// digestSlots is a counting semaphore over digestCh's capacity:
	// ingest takes a token before its WAL append, the digester returns
	// one per record it dequeues.
	digestSlots chan struct{}
	// digestMu is held by the digester across each record fold and by
	// CheckpointNow while it snapshots, so a checkpoint can never
	// observe a half-applied record or misstate the WAL position its
	// snapshots cover.
	digestMu   sync.Mutex
	digestVals []float64 // digester's decode scratch (serialised by digestMu)
	// walMu guards ingest appends against shutdown closing digestCh.
	walMu      sync.RWMutex
	walStopped bool

	// Site watermark: the monotonic counter peers use to decide whether
	// one snapshot envelope of this site is fresher than another. On a
	// WAL server the base is the digested LSN (persisted, replayed); on
	// an in-memory server it is wmBase, bumped per applied mutation.
	// wmOffset lifts the advertised watermark above the base after the
	// node adopts a peer replica numbered in its pre-restart sequence —
	// so post-adoption ingest keeps the watermark strictly increasing
	// instead of stalling below the adopted value.
	wmBase   atomic.Uint64
	wmOffset atomic.Uint64

	// Replica store: catalog-entry blobs of other sites' histograms,
	// pulled by the anti-entropy loop and re-served to peers (which is
	// what lets a rejoining third node catch up from either survivor).
	replMu   sync.RWMutex
	replicas map[string]map[string]replica

	// syncMu serialises anti-entropy rounds: the loop and any
	// SyncPeersNow callers take it around each syncPeer, so adoption,
	// replica writes and watermark advancement never run concurrently
	// with another round.
	syncMu sync.Mutex

	peerHTTP *http.Client

	stopOnce sync.Once
	stop     chan struct{}
	loopDone chan struct{}
	aeDone   chan struct{}
}

// New builds a server, restoring the registry from cfg.CatalogDir when
// set (corrupt catalog files are skipped and logged, never fatal) and
// starting the periodic checkpoint loop when cfg.CheckpointEvery > 0.
func New(cfg Config) (*Server, error) {
	if len(cfg.Peers) > 0 && cfg.SiteID == "" {
		return nil, errors.New("server: peers configured without a site ID")
	}
	if cfg.AntiEntropyEvery <= 0 {
		cfg.AntiEntropyEvery = time.Second
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 2 * time.Second
	}
	s := &Server{
		cfg:      cfg,
		reg:      NewRegistry(),
		mux:      http.NewServeMux(),
		log:      cfg.Logger,
		replicas: make(map[string]map[string]replica),
		peerHTTP: &http.Client{Timeout: cfg.PeerTimeout},
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		aeDone:   make(chan struct{}),
	}
	if s.log == nil {
		s.log = log.New(os.Stderr, "histserved: ", log.LstdFlags)
	}
	if cfg.CatalogDir != "" {
		if err := os.MkdirAll(cfg.CatalogDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: catalog dir: %w", err)
		}
		for _, err := range loadCatalog(cfg.CatalogDir, s.reg) {
			s.log.Printf("recovery: skipping entry: %v", err)
		}
		if n := s.reg.Len(); n > 0 {
			s.log.Printf("recovered %d histogram(s) from %s", n, cfg.CatalogDir)
		}
	}
	if cfg.WAL.Dir != "" {
		if err := s.startWAL(); err != nil {
			return nil, fmt.Errorf("server: wal: %w", err)
		}
	}
	s.seedWatermark()
	// Metric registration needs the WAL handle (function-backed WAL
	// metrics) and must precede routes (the middleware resolves its
	// per-endpoint handles at mount time) and the anti-entropy loop
	// (which updates per-peer counters).
	s.metrics = newServerMetrics(s)
	s.routes()
	if cfg.CatalogDir != "" && cfg.CheckpointEvery > 0 {
		go s.checkpointLoop()
	} else {
		close(s.loopDone)
	}
	if len(cfg.Peers) > 0 {
		go s.antiEntropyLoop()
	} else {
		close(s.aeDone)
	}
	return s, nil
}

// seedWatermark re-seeds the advertised site watermark from the
// restored catalog: the maximum watermark any surviving entry covers.
// On a WAL server the base (digested LSN) usually already exceeds it —
// the offset only lifts the watermark when a previous adoption pushed
// it past the local sequence. Called after catalog restore and WAL
// replay, before any endpoint is mounted.
func (s *Server) seedWatermark() {
	var maxWM uint64
	for _, e := range s.reg.entries() {
		if wm := e.siteWM.Load(); wm > maxWM {
			maxWM = wm
		}
	}
	base := s.watermarkBase()
	if maxWM > base {
		s.wmOffset.Store(maxWM - base)
	}
}

// watermarkBase is the monotonic local-ingest counter: the WAL digested
// LSN on durable servers, the in-memory mutation counter otherwise.
func (s *Server) watermarkBase() uint64 {
	if s.wal != nil {
		return s.wal.DigestedLSN()
	}
	return s.wmBase.Load()
}

// watermark is the site watermark this node advertises: how much of its
// site's ingest its current in-memory state covers. Monotonic across
// restarts (the base replays/reloads, the offset is re-seeded from the
// catalog) and across adoptions (advanceWatermark lifts the offset).
//
// Watermark contract: a per-entry watermark (entry.siteWM, what catalog
// rows and entry/envelope responses carry) never overstates the
// snapshot it is paired with — the stamp lands only after the mutation
// applies, and WAL servers additionally freeze the digester while
// reading both. On in-memory servers the pairing is unsynchronised
// against concurrent ingest, so an advertised watermark may briefly
// *under*state what a snapshot already contains; peers then re-rank or
// re-pull a copy they could have skipped, which the next round heals.
// The adoption logic only relies on the safe direction: coverage
// claimed is coverage present.
func (s *Server) watermark() uint64 {
	return s.watermarkBase() + s.wmOffset.Load()
}

// noteMutation advances the in-memory watermark base. WAL servers track
// the digested LSN instead, so this is a no-op there.
func (s *Server) noteMutation() {
	if s.wal == nil {
		s.wmBase.Add(1)
	}
}

// advanceWatermark lifts the advertised watermark to at least wm (used
// after adopting a peer replica numbered in this site's pre-restart
// sequence). Serialized by syncMu; the base may advance concurrently
// under it, which at worst lifts the result past wm — never below.
func (s *Server) advanceWatermark(wm uint64) {
	if cur := s.watermark(); wm > cur {
		s.wmOffset.Add(wm - cur)
	}
}

// Registry exposes the server's registry (used by tests and the
// serving experiment).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the HTTP handler serving the /v1 API and /healthz.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the checkpoint loop, drains the WAL digester, and takes
// a final checkpoint so no acknowledged write older than the last
// catalog write is lost beyond the snapshot's own approximation. Call
// it after the HTTP listener has shut down — in-flight ingest requests
// racing a Close may be refused with a shutdown error.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.loopDone
	<-s.aeDone
	if s.wal != nil {
		s.stopWAL()
	}
	var firstErr error
	if s.cfg.CatalogDir != "" {
		firstErr = s.CheckpointNow()
	}
	if s.wal != nil {
		if err := s.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// checkpointLoop periodically persists every registered histogram.
func (s *Server) checkpointLoop() {
	defer close(s.loopDone)
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.CheckpointNow(); err != nil {
				s.log.Printf("checkpoint: %v", err)
			}
		}
	}
}

// CheckpointNow serializes every registered histogram into the catalog
// directory, one atomically replaced file per histogram. Entries
// deleted while the pass runs are skipped. Returns the first error,
// after attempting every entry.
//
// With the WAL enabled, the pass pauses the digester between records
// while it encodes the snapshots, so the catalog captures a consistent
// fold state and — the part a crash cares about — the exact WAL
// position that state covers. Only after every file is durably written
// is that position recorded and the fully-digested segments truncated;
// any file failure keeps the log intact so recovery can still replay.
func (s *Server) CheckpointNow() error {
	if s.cfg.CatalogDir == "" {
		return errors.New("server: no catalog directory configured")
	}
	s.catMu.Lock()
	defer s.catMu.Unlock()

	// Freeze the fold: no record is mid-apply while digestMu is held,
	// and the digested LSN is exactly what the snapshots will contain.
	// Appends (and acks) continue — only digestion stalls.
	var cover uint64
	if s.wal != nil {
		s.digestMu.Lock()
		// Read the position first: it is frozen while digestMu is held,
		// and stamping it into every entry file makes snapshot and
		// position one atomic unit per histogram.
		cover = s.wal.DigestedLSN()
	}
	type pending struct {
		name string
		data []byte
	}
	var (
		blobs    []pending
		firstErr error
	)
	for _, e := range s.reg.entries() {
		if !s.reg.Has(e.name) {
			continue
		}
		// Each entry persists its own covered watermark, so a restart
		// re-advertises exactly the per-entry coverage peers saw live.
		data, err := EncodeEntry(e, cover, e.siteWM.Load())
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("checkpoint %q: %w", e.name, err)
			}
			continue
		}
		blobs = append(blobs, pending{e.name, data})
	}
	if s.wal != nil {
		s.digestMu.Unlock()
	}

	for _, p := range blobs {
		if !s.reg.Has(p.name) {
			continue
		}
		if err := writeCatalogFile(s.cfg.CatalogDir, p.name, p.data); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("checkpoint %q: %w", p.name, err)
		}
	}
	if s.wal != nil && firstErr == nil {
		if err := s.wal.Checkpoint(cover); err != nil {
			firstErr = err
		}
	}
	return firstErr
}

// routes mounts every endpoint, each behind the instrument middleware
// (per-endpoint request counts, in-flight gauge, latency tracker,
// status-class counters). The exposition endpoints themselves are
// mounted only under Config.Metrics.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	s.mux.HandleFunc("POST /v1/h", s.instrument("create", s.handleCreate))
	s.mux.HandleFunc("GET /v1/h", s.instrument("list", s.handleList))
	s.mux.HandleFunc("GET /v1/h/{name}", s.instrument("info", s.handleInfo))
	s.mux.HandleFunc("DELETE /v1/h/{name}", s.instrument("drop", s.handleDelete))
	s.mux.HandleFunc("POST /v1/h/{name}/insert", s.instrument("insert", s.handleUpdate(insertOp)))
	s.mux.HandleFunc("POST /v1/h/{name}/delete", s.instrument("delete", s.handleUpdate(deleteOp)))
	s.mux.HandleFunc("POST /v1/h/{name}/query", s.instrument("query", s.handleQuery))
	s.mux.HandleFunc("POST /v1/h/{name}/feedback", s.instrument("feedback", s.handleFeedback))
	s.mux.HandleFunc("GET /v1/h/{name}/total", s.instrument("total", s.handleTotal))
	s.mux.HandleFunc("GET /v1/h/{name}/cdf", s.instrument("cdf", s.handleCDF))
	s.mux.HandleFunc("GET /v1/h/{name}/quantile", s.instrument("quantile", s.handleQuantile))
	s.mux.HandleFunc("GET /v1/h/{name}/range", s.instrument("range", s.handleRange))
	s.mux.HandleFunc("GET /v1/h/{name}/buckets", s.instrument("buckets", s.handleBuckets))
	s.mux.HandleFunc("GET /v1/h/{name}/envelope", s.instrument("envelope", s.handleEnvelope))
	s.mux.HandleFunc("GET /v1/wal/status", s.instrument("wal_status", s.handleWALStatus))
	s.mux.HandleFunc("GET /v1/sites/catalog", s.instrument("site_catalog", s.handleSiteCatalog))
	s.mux.HandleFunc("GET /v1/sites/entry", s.instrument("site_entry", s.handleSiteEntry))
	s.mux.HandleFunc("GET /v1/sites/entries", s.instrument("site_entries", s.handleSiteEntries))
	if s.cfg.Metrics {
		s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
		s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, wire.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// statusOf maps registry errors onto HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrBadName), errors.Is(err, ErrFamily):
		return http.StatusBadRequest
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req wire.CreateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	info, err := s.reg.Create(req)
	if err != nil {
		writeErr(w, statusOf(err), "%v", err)
		return
	}
	if s.wal != nil {
		// The create must be in the log before it is acknowledged, or a
		// crash before the next checkpoint would forget the histogram
		// while replaying batches logged for it.
		body, merr := json.Marshal(req)
		if merr == nil {
			_, merr = s.appendControl(wal.OpCreate, req.Name, body)
		}
		if merr != nil {
			_ = s.reg.Delete(req.Name)
			writeErr(w, http.StatusInternalServerError, "logging create: %v", merr)
			return
		}
	}
	s.noteMutation()
	// A fresh histogram trivially covers the site sequence so far; the
	// stamp gives peers a nonzero row to rank the empty entry by.
	if e, err := s.reg.get(req.Name); err == nil {
		e.bumpSiteWM(s.watermark())
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wire.ListResponse{Histograms: s.reg.List()})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	e, err := s.reg.get(r.PathValue("name"))
	if err != nil {
		writeErr(w, statusOf(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, e.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Delete(name); err != nil {
		writeErr(w, statusOf(err), "%v", err)
		return
	}
	if s.cfg.CatalogDir != "" {
		s.catMu.Lock()
		err := os.Remove(catalogPath(s.cfg.CatalogDir, name))
		s.catMu.Unlock()
		if err != nil && !os.IsNotExist(err) {
			s.log.Printf("delete %q: removing catalog file: %v", name, err)
		}
	}
	if s.wal != nil {
		if _, err := s.appendControl(wal.OpDrop, name, nil); err != nil {
			// The in-memory drop stands, but replay may resurrect the
			// histogram from earlier records; tell the caller.
			writeErr(w, http.StatusInternalServerError, "logging delete: %v", err)
			return
		}
	}
	s.noteMutation()
	w.WriteHeader(http.StatusNoContent)
}

type updateOp int

const (
	insertOp updateOp = iota
	deleteOp
)

// ingestBuf is the per-request scratch of the ingest endpoints: the
// raw body bytes and the decoded values. Both slices are recycled
// through ingestPool, so a steady stream of same-sized binary batches
// reads and decodes with no per-request allocation at all.
type ingestBuf struct {
	body []byte
	vals []float64
}

// ingestPool recycles ingest scratch across requests. Buffers that
// grew past poolBufLimit are dropped instead of pooled, so one huge
// batch does not pin its footprint forever.
var ingestPool = sync.Pool{New: func() any { return new(ingestBuf) }}

// poolBufLimit caps the body capacity a pooled buffer may retain
// (1 MiB ≈ 128k values — far above the common batch sizes).
const poolBufLimit = 1 << 20

// readBody reads r to EOF into dst's backing array, growing it only
// when capacity runs out — io.ReadAll without the guaranteed
// allocation.
func readBody(r io.Reader, dst []byte) ([]byte, error) {
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			grown := make([]byte, len(dst), 2*cap(dst)+4096)
			copy(grown, dst)
			dst = grown
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// handleUpdate serves the two ingest endpoints. The body is either a
// JSON ValuesRequest or, under wire.BatchContentType, the binary batch
// format. The binary path runs on pooled buffers end to end: body
// bytes and decoded values both come from ingestPool, so steady-state
// binary ingest allocates nothing per request in this handler.
func (s *Server) handleUpdate(op updateOp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, err := s.reg.get(r.PathValue("name"))
		if err != nil {
			writeErr(w, statusOf(err), "%v", err)
			return
		}
		h := e.h
		buf := ingestPool.Get().(*ingestBuf)
		defer func() {
			if cap(buf.body) <= poolBufLimit && cap(buf.vals)*8 <= poolBufLimit {
				ingestPool.Put(buf)
			}
		}()
		buf.body, err = readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), buf.body)
		body := buf.body
		if err != nil {
			writeErr(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
			return
		}
		// The binary batch format is opted into by content type; any
		// other body (curl's default form type included) is parsed as
		// the JSON ValuesRequest.
		var vs []float64
		if r.Header.Get("Content-Type") == wire.BatchContentType {
			vs, err = wire.DecodeBatchInto(buf.vals[:0], body)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "%v", err)
				return
			}
			if cap(vs) > cap(buf.vals) {
				buf.vals = vs[:0]
			}
		} else {
			var req wire.ValuesRequest
			if err := json.Unmarshal(body, &req); err != nil {
				writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
				return
			}
			vs = req.Values
		}
		for i, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				writeErr(w, http.StatusBadRequest, "non-finite value at index %d", i)
				return
			}
		}
		if s.wal != nil {
			// Durable path: log the batch (a binary body verbatim, a
			// JSON one re-encoded into the same wire batch format) and
			// ack once the append is durable per the sync policy. The
			// digester folds it in asynchronously, so the reported
			// total lags by the digest queue.
			walOp := wal.OpInsert
			if op == deleteOp {
				walOp = wal.OpDelete
			}
			batch := body
			if r.Header.Get("Content-Type") != wire.BatchContentType {
				batch, err = wire.EncodeBatch(vs)
				if err != nil {
					writeErr(w, http.StatusUnprocessableEntity, "%v", err)
					return
				}
			}
			lsn, err := s.appendAndEnqueue(walOp, r.PathValue("name"), batch)
			if errors.Is(err, errDigestFull) {
				s.metrics.ingestRejected.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(int(digestWait/time.Second)))
				writeErr(w, http.StatusServiceUnavailable, "%v", err)
				return
			}
			if err != nil {
				writeErr(w, http.StatusServiceUnavailable, "durable append: %v", err)
				return
			}
			// DigestedLSN tells the caller how much of the acked log the
			// reads already reflect — once it reaches lsn, this batch is
			// folded in, not just durable.
			s.metrics.ingestBatch.Observe(float64(len(vs)))
			writeJSON(w, http.StatusOK, wire.UpdateResponse{
				Applied: len(vs), Total: h.Total(), LSN: lsn, DigestedLSN: s.wal.DigestedLSN(),
			})
			return
		}
		if op == insertOp {
			err = h.InsertBatch(vs)
		} else {
			err = h.DeleteBatch(vs)
		}
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		s.noteMutation()
		e.bumpSiteWM(s.watermark())
		e.bumpQueryEpoch()
		s.metrics.ingestBatch.Observe(float64(len(vs)))
		writeJSON(w, http.StatusOK, wire.UpdateResponse{Applied: len(vs), Total: h.Total()})
	}
}

// queryFloat parses a required float query parameter.
func queryFloat(r *http.Request, key string) (float64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", key)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("query parameter %q: not a finite number: %q", key, raw)
	}
	return v, nil
}

// maxQueryStats bounds the number of statistics one batch query may
// request, so a single request cannot ask for unbounded work.
const maxQueryStats = 10000

// evaluate answers a batch query from one pinned view of the named
// histogram. Every read endpoint — the batch POST and the per-statistic
// GET wrappers — funnels through here, so the whole read API shares
// one evaluation path and one consistency story. On failure it writes
// the HTTP error itself and reports false.
func (s *Server) evaluate(w http.ResponseWriter, name string, req wire.QueryRequest) (wire.QueryResponse, bool) {
	e, err := s.reg.get(name)
	if err != nil {
		writeErr(w, statusOf(err), "%v", err)
		return wire.QueryResponse{}, false
	}
	return s.evaluateEntry(w, e, req)
}

// evaluateEntry is evaluate after entry resolution — the form the
// cached query path uses, since it resolves the entry up front to
// reach its cache.
func (s *Server) evaluateEntry(w http.ResponseWriter, e *entry, req wire.QueryRequest) (wire.QueryResponse, bool) {
	if n := len(req.Quantiles) + len(req.CDF) + len(req.PDF) + len(req.Ranges); n > maxQueryStats {
		writeErr(w, http.StatusBadRequest, "query asks for %d statistics, limit %d", n, maxQueryStats)
		return wire.QueryResponse{}, false
	}
	for i, q := range req.Quantiles {
		if math.IsNaN(q) || q <= 0 || q > 1 {
			writeErr(w, http.StatusBadRequest, "quantile %v (index %d) outside (0,1]", q, i)
			return wire.QueryResponse{}, false
		}
	}
	for _, xs := range [][]float64{req.CDF, req.PDF} {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				writeErr(w, http.StatusBadRequest, "non-finite query point at index %d", i)
				return wire.QueryResponse{}, false
			}
		}
	}
	for i, rr := range req.Ranges {
		if math.IsNaN(rr.Lo) || math.IsInf(rr.Lo, 0) || math.IsNaN(rr.Hi) || math.IsInf(rr.Hi, 0) {
			writeErr(w, http.StatusBadRequest, "non-finite range bound at index %d", i)
			return wire.QueryResponse{}, false
		}
	}
	v, err := s.viewOf(e)
	if err != nil {
		// Only reachable when a shard member produced an unmergeable
		// bucket list — impossible for registry-built histograms, but
		// surfaced honestly rather than served as a silent zero.
		writeErr(w, http.StatusInternalServerError, "merged view unavailable: %v", err)
		return wire.QueryResponse{}, false
	}
	spec := dynahist.QuerySpec{
		Quantiles: req.Quantiles,
		CDF:       req.CDF,
		PDF:       req.PDF,
		Buckets:   req.Buckets,
	}
	if len(req.Ranges) > 0 {
		spec.Ranges = make([]dynahist.Range, len(req.Ranges))
		for i, rr := range req.Ranges {
			spec.Ranges[i] = dynahist.Range{Lo: rr.Lo, Hi: rr.Hi}
		}
	}
	sum, err := v.Describe(spec)
	if err != nil {
		// Arguments were validated above; what remains is quantiles of
		// an empty histogram.
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return wire.QueryResponse{}, false
	}
	resp := wire.QueryResponse{
		Total:     sum.Total,
		Quantiles: sum.Quantiles,
		CDF:       sum.CDF,
		PDF:       sum.PDF,
		Ranges:    sum.Ranges,
	}
	if req.Buckets {
		resp.Buckets = toWireBuckets(sum.Buckets)
	}
	return resp, true
}

func toWireBuckets(bs []dynahist.Bucket) []wire.Bucket {
	out := make([]wire.Bucket, len(bs))
	for i, b := range bs {
		out[i] = wire.Bucket{Left: b.Left, Right: b.Right, Counters: b.Counters}
	}
	return out
}

// maxQueryBody caps POST /query request bodies.
const maxQueryBody = 1 << 20

// readBodyLimit is readBody with a size cap enforced inline instead of
// through an http.MaxBytesReader wrapper — the cached query hit path
// runs through here and must not allocate.
// jsonContentType is the shared Content-Type value the allocation-free
// cache-hit path assigns directly into the response header map.
var jsonContentType = []string{"application/json"}

func readBodyLimit(r io.Reader, dst []byte, limit int) ([]byte, error) {
	dst = dst[:0]
	for {
		if len(dst) > limit {
			return dst, fmt.Errorf("body exceeds %d bytes", limit)
		}
		if len(dst) == cap(dst) {
			grown := make([]byte, len(dst), 2*cap(dst)+4096)
			copy(grown, dst)
			dst = grown
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// handleQuery serves POST /v1/h/{name}/query: many statistics, one
// pinned view, one round trip. Responses are cached per (entry, query
// epoch, raw request body): a repeated hot query against an unchanged
// histogram is answered straight from the cache — pooled body read,
// allocation-free map lookup — and every applied mutation bumps the
// entry's epoch, which makes all cached responses unreachable at once.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	e, err := s.reg.get(r.PathValue("name"))
	if err != nil {
		writeErr(w, statusOf(err), "%v", err)
		return
	}
	buf := ingestPool.Get().(*ingestBuf)
	defer func() {
		if cap(buf.body) <= poolBufLimit && cap(buf.vals)*8 <= poolBufLimit {
			ingestPool.Put(buf)
		}
	}()
	buf.body, err = readBodyLimit(r.Body, buf.body, maxQueryBody)
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}
	// The epoch is loaded before any view is pinned, and the response
	// is stored under it — so a cached response never claims more
	// freshness than the state it was computed from.
	epoch := e.qEpoch.Load()
	if resp := e.qc.get(epoch, buf.body); resp != nil {
		s.metrics.cacheHits.Inc()
		// Direct map assignment of a shared value: Header().Set would
		// allocate a fresh []string on every hit.
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(resp)
		return
	}
	s.metrics.cacheMisses.Inc()
	var req wire.QueryRequest
	if err := json.Unmarshal(buf.body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	resp, ok := s.evaluateEntry(w, e, req)
	if !ok {
		return
	}
	data, err := json.Marshal(resp)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	data = append(data, '\n') // byte-identical to the Encoder framing writeJSON uses
	stale, evicted := e.qc.put(epoch, buf.body, data)
	if stale {
		s.metrics.cacheStalePuts.Inc()
	}
	if evicted > 0 {
		s.metrics.cacheEvictions.Add(uint64(evicted))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// The per-statistic GET endpoints are thin wrappers over the same
// batch evaluation, kept for curl-ability and compatibility.

func (s *Server) handleTotal(w http.ResponseWriter, r *http.Request) {
	resp, ok := s.evaluate(w, r.PathValue("name"), wire.QueryRequest{})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, wire.TotalResponse{Total: resp.Total})
}

func (s *Server) handleCDF(w http.ResponseWriter, r *http.Request) {
	x, err := queryFloat(r, "x")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, ok := s.evaluate(w, r.PathValue("name"), wire.QueryRequest{CDF: []float64{x}})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, wire.CDFResponse{X: x, CDF: resp.CDF[0]})
}

func (s *Server) handleQuantile(w http.ResponseWriter, r *http.Request) {
	q, err := queryFloat(r, "q")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, ok := s.evaluate(w, r.PathValue("name"), wire.QueryRequest{Quantiles: []float64{q}})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, wire.QuantileResponse{Q: q, Value: resp.Quantiles[0]})
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	lo, err := queryFloat(r, "lo")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	hi, err := queryFloat(r, "hi")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, ok := s.evaluate(w, r.PathValue("name"), wire.QueryRequest{Ranges: []wire.RangeQuery{{Lo: lo, Hi: hi}}})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, wire.RangeResponse{Lo: lo, Hi: hi, Count: resp.Ranges[0]})
}

func (s *Server) handleBuckets(w http.ResponseWriter, r *http.Request) {
	resp, ok := s.evaluate(w, r.PathValue("name"), wire.QueryRequest{Buckets: true})
	if !ok {
		return
	}
	bs := resp.Buckets
	if bs == nil {
		bs = []wire.Bucket{}
	}
	writeJSON(w, http.StatusOK, wire.BucketsResponse{Buckets: bs})
}
