package server

// Self-tuning and the epoch-keyed query cache. Both ride the same
// per-entry query epoch (entry.qEpoch, bumped strictly after each
// applied mutation):
//
//   - The query cache stores marshaled POST /query responses keyed on
//     the raw request body, under the epoch the reader observed before
//     evaluating. A get only hits when the reader's epoch equals the
//     cache's, so a response computed against pre-write state is never
//     served to a reader who started after the write — the same
//     invalidation discipline as the engine's shard merge cache.
//   - The tuned-view memo caches the feedback-adjusted overlay view
//     per (epoch, tuner round), so hot reads rebuild it only when a
//     write or new feedback lands.
//
// Tuning itself never touches the live maintained histogram: the
// journal replays onto a flat Store built from each epoch's merged
// view (see internal/tuner). Feedback is node-local state — it is not
// WAL-logged or replicated, and persists only through the catalog's
// journal blob (version 5), so a crash between checkpoints loses at
// most the records since the last one; estimates then re-learn.

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"

	"dynahist"
	"dynahist/internal/tuner"
	"dynahist/internal/wire"
)

// TuningConfig enables and bounds the feedback loop.
type TuningConfig struct {
	// Enabled turns on POST /v1/h/{name}/feedback and tuned serving.
	// When off, feedback is rejected and restored journals are ignored
	// (but preserved through checkpoints).
	Enabled bool
	// Params bounds the per-record adjustment; zero fields take the
	// tuner package defaults.
	Params tuner.Config
}

// maxCachedQueries bounds the distinct request bodies cached per entry
// per epoch; beyond it new shapes evaluate uncached until the next
// epoch resets the map.
const maxCachedQueries = 256

// queryCache is one entry's epoch-keyed response cache. The map is
// keyed on raw request-body bytes: a lookup via m[string(key)] does
// not allocate, which is what makes the hit path ~0 allocs/op.
type queryCache struct {
	mu    sync.Mutex
	epoch uint64
	m     map[string][]byte
}

// get returns the cached response for key at the reader-observed
// epoch, or nil. A cache holding any other epoch — older or newer —
// never hits: the stored responses were computed against a different
// write history than the reader observed.
func (c *queryCache) get(epoch uint64, key []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch {
		return nil
	}
	return c.m[string(key)]
}

// put stores a response computed at the observed epoch. A put from a
// reader that raced a write (its epoch is behind the cache's) is
// dropped — its response may predate the write the cache's current
// epoch covers. A put ahead of the cache's epoch resets the map. The
// return values feed the cache metrics: stale reports a dropped racy
// put, evicted how many cached responses an epoch advance cleared.
func (c *queryCache) put(epoch uint64, key, resp []byte) (stale bool, evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < c.epoch {
		return true, 0
	}
	if epoch > c.epoch {
		c.epoch = epoch
		evicted = len(c.m)
		clear(c.m)
	}
	if c.m == nil {
		c.m = make(map[string][]byte)
	}
	if len(c.m) >= maxCachedQueries {
		return false, evicted
	}
	// The key aliases pooled request scratch; the stored copy must own
	// its bytes.
	c.m[string(append([]byte(nil), key...))] = resp
	return false, evicted
}

// bumpQueryEpoch invalidates the entry's cached responses and tuned
// view. Called strictly after a mutation applies, beside the siteWM
// stamp.
func (e *entry) bumpQueryEpoch() { e.qEpoch.Add(1) }

// tunerFor returns the entry's tuner, creating it (or restoring it
// from a catalog journal blob) on first use under cfg's bounds.
func (e *entry) tunerFor(cfg tuner.Config) *tuner.Tuner {
	e.tunMu.Lock()
	defer e.tunMu.Unlock()
	if e.tun == nil {
		if len(e.journal) > 0 {
			if t, err := tuner.FromSnapshot(e.journal, cfg); err == nil {
				e.tun = t
			}
		}
		if e.tun == nil {
			e.tun = tuner.New(cfg)
		}
		e.journal = nil
	}
	return e.tun
}

// journalSnapshot returns the entry's feedback journal for the
// catalog: the live tuner's snapshot, or the still-undecoded restored
// blob (preserved verbatim so a server running with tuning disabled
// does not discard journals across checkpoints), or nil.
func (e *entry) journalSnapshot() []byte {
	e.tunMu.Lock()
	defer e.tunMu.Unlock()
	if e.tun != nil {
		if e.tun.Len() == 0 {
			return nil
		}
		return e.tun.Snapshot()
	}
	return e.journal
}

// adoptTuning transplants old's feedback journal into e — the
// anti-entropy adoption path. The adopted snapshot replaces the
// histogram's data, but the locally observed workload feedback is
// still the best knowledge this node has; it replays onto the adopted
// buckets like onto any new view epoch.
func (e *entry) adoptTuning(old *entry) {
	old.tunMu.Lock()
	tun, journal := old.tun, old.journal
	old.tunMu.Unlock()
	if tun == nil && len(journal) == 0 {
		// Nothing observed locally; keep whatever journal the adopted
		// blob itself carried (e.g. this node's own pre-crash one).
		return
	}
	e.tunMu.Lock()
	e.tun, e.journal = tun, journal
	e.tunMu.Unlock()
}

// viewOf pins the view the read path serves for e: the engine's merged
// view, overlaid with the feedback journal when tuning is enabled and
// the entry has observed any. The overlay is memoised per (query
// epoch, tuner round); failures to build it fail soft to the untuned
// view — estimation quality degrades, serving never breaks.
func (s *Server) viewOf(e *entry) (*dynahist.View, error) {
	epoch := e.qEpoch.Load()
	v, err := e.h.View()
	if err != nil || !s.cfg.Tuning.Enabled {
		return v, err
	}
	t := e.tunerFor(s.cfg.Tuning.Params)
	rounds := t.Rounds()
	if t.Len() == 0 {
		return v, nil
	}
	e.tvMu.Lock()
	if e.tv != nil && e.tvEpoch == epoch && e.tvRounds == rounds {
		tv := e.tv
		e.tvMu.Unlock()
		return tv, nil
	}
	e.tvMu.Unlock()
	tv := buildTunedView(v, t)
	if tv == nil {
		return v, nil
	}
	e.tvMu.Lock()
	e.tv, e.tvEpoch, e.tvRounds = tv, epoch, rounds
	e.tvMu.Unlock()
	return tv, nil
}

// buildTunedView replays the journal onto an overlay of the merged
// view and wraps the result as a servable view. A nil return means the
// overlay could not be built (empty or mixed-K bucket lists); the
// caller serves the untuned view.
func buildTunedView(v *dynahist.View, t *tuner.Tuner) *dynahist.View {
	st, err := tuner.StoreOfView(v)
	if err != nil {
		return nil
	}
	t.ApplyTo(st)
	tv, err := tuner.ViewOfStore(st)
	if err != nil {
		return nil
	}
	return tv
}

// handleFeedback serves POST /v1/h/{name}/feedback: journal one
// feedback record and report the estimate before and after it applied.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Tuning.Enabled {
		writeErr(w, http.StatusConflict, "self-tuning is disabled (start histserved with -tuning)")
		return
	}
	e, err := s.reg.get(r.PathValue("name"))
	if err != nil {
		writeErr(w, statusOf(err), "%v", err)
		return
	}
	var req wire.FeedbackRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if math.IsNaN(req.Lo) || math.IsInf(req.Lo, 0) || math.IsNaN(req.Hi) || math.IsInf(req.Hi, 0) {
		writeErr(w, http.StatusBadRequest, "non-finite range bound")
		return
	}
	v, err := s.viewOf(e)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "merged view unavailable: %v", err)
		return
	}
	est := v.EstimateRange(req.Lo, req.Hi)
	t := e.tunerFor(s.cfg.Tuning.Params)
	rec := tuner.Record{Lo: req.Lo, Hi: req.Hi, Estimated: est, Observed: req.Observed}
	if err := t.Observe(rec); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The feedback changes served answers: cached responses and the
	// tuned-view memo are stale.
	e.bumpQueryEpoch()
	resp := wire.FeedbackResponse{
		Name:          e.name,
		Lo:            req.Lo,
		Hi:            req.Hi,
		Observed:      req.Observed,
		Estimated:     est,
		TunedEstimate: est,
		JournalLen:    t.Len(),
		Rounds:        t.Rounds(),
	}
	if tv, err := s.viewOf(e); err == nil {
		resp.TunedEstimate = tv.EstimateRange(req.Lo, req.Hi)
	}
	s.metrics.feedbackApplied.Inc()
	// "Clamped" is a serving-side definition: the tuner's bounded
	// adjustment left the tuned estimate more than max(1, 1% of
	// observed) away from the observed count — the record was journaled
	// but could not be fully absorbed this round.
	if math.Abs(resp.TunedEstimate-req.Observed) > math.Max(1, 0.01*math.Abs(req.Observed)) {
		s.metrics.feedbackClamped.Inc()
	}
	writeJSON(w, http.StatusOK, resp)
}
