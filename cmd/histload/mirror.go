package main

// The mirror pipeline of the traced run: one histogram registry per
// site plus a WAL, fed the same requests in the same order as the
// server under test, so its state equals the server's. Each method
// repeats the server handler's (or digester's, or client's) steps
// through the layers' public functions and records a span around each
// call, which is how the traced run breaks a request down by layer
// without instrumenting the server.

import (
	"encoding/json"
	"fmt"
	"time"

	"dynahist"
	"dynahist/client"
	"dynahist/internal/histogram"
	"dynahist/internal/server"
	"dynahist/internal/tuner"
	"dynahist/internal/wal"
	"dynahist/internal/wire"
)

// maxCachedQueries mirrors the server's query cache bound: response
// shapes kept per histogram per epoch.
const maxCachedQueries = 256

// mirrorEntry mirrors one registered histogram: the engine plus the
// server-side state that decides which work a request does.
type mirrorEntry struct {
	h *dynahist.Sharded
	// dirty is set by a fold and cleared by the merge that follows it.
	dirty bool
	// epoch mirrors the server's per-entry query epoch, bumped after
	// every fold and every feedback record.
	epoch      uint64
	cacheEpoch uint64
	cache      map[string][]byte
	tun        *tuner.Tuner
	tv         *dynahist.View
	tvEpoch    uint64
	tvRounds   uint64
}

type mirror struct {
	tr    *tracer
	sites []map[string]*mirrorEntry
	regs  []*server.Registry
	wal   *wal.Log // site 0's log, on the server's sync policy
	vals  []float64

	// Samples and counts the spans do not carry.
	mergedBuckets []float64
	envBytes      []float64
	walValues     int
	lookups, hits int
}

func newMirror(tr *tracer, sites int, walOpts wal.Options) (*mirror, error) {
	l, err := wal.Open(walOpts)
	if err != nil {
		return nil, fmt.Errorf("mirror wal: %w", err)
	}
	m := &mirror{tr: tr, wal: l}
	for s := 0; s < sites; s++ {
		m.sites = append(m.sites, map[string]*mirrorEntry{})
		m.regs = append(m.regs, server.NewRegistry())
	}
	return m, nil
}

func (m *mirror) close() error { return m.wal.Close() }

func (m *mirror) create(site int, name string) error {
	h, err := createMirrorHist(m.regs[site], name)
	if err != nil {
		return err
	}
	m.sites[site][name] = &mirrorEntry{h: h, tun: tuner.New(tuner.Config{})}
	return nil
}

// pin is Sharded.View as the read path and the ingest ack reach it: a
// merge when a fold landed since the last one, a cache hit otherwise.
func (m *mirror) pin(e *mirrorEntry, side string) *dynahist.View {
	var v *dynahist.View
	if !e.dirty {
		m.tr.timed("shard.view_hit", side, func() { v, _ = e.h.View() })
		return v
	}
	m.tr.timed("shard.merge", side, func() { v, _ = e.h.View() })
	e.dirty = false
	if m.tr.on {
		m.mergedBuckets = append(m.mergedBuckets, float64(v.NumBuckets()))
	}
	return v
}

// insert mirrors a binary ingest request: client encode, handler decode
// and WAL append, the ack's merged-view read and response encoding, then
// the digester's fold. It returns the fold's duration.
func (m *mirror) insert(site int, name string, values []float64) time.Duration {
	e := m.sites[site][name]
	var body []byte
	m.tr.timed("wire.encode", sideClient, func() { body, _ = wire.EncodeBatch(values) })
	var vs []float64
	m.tr.timed("wire.decode", sideHandler, func() { vs, _ = wire.DecodeBatchInto(m.vals[:0], body) })
	m.vals = vs[:0]
	var lsn uint64
	m.tr.timed("wal.append", sideHandler, func() { lsn, _ = m.wal.Append(wal.OpInsert, name, body) })
	total := m.pin(e, sideHandler).Total()
	m.tr.timed("server.json_encode", sideHandler, func() {
		_, _ = json.Marshal(wire.UpdateResponse{Applied: len(vs), Total: total, LSN: lsn, DigestedLSN: lsn - 1})
	})
	fold := m.tr.timed("shard.insert_batch", sideAsync, func() { _ = e.h.InsertBatch(vs) })
	e.dirty = true
	e.epoch++
	m.walValues += len(values)
	return fold
}

// view mirrors the server's viewOf: the merged view overlaid with the
// feedback journal, rebuilt when the epoch or journal changed.
func (m *mirror) view(e *mirrorEntry) *dynahist.View {
	epoch := e.epoch
	v := m.pin(e, sideHandler)
	rounds := e.tun.Rounds()
	if e.tun.Len() == 0 {
		return v
	}
	if e.tv != nil && e.tvEpoch == epoch && e.tvRounds == rounds {
		return e.tv
	}
	if tv := m.tunedView(v, e.tun); tv != nil {
		e.tv, e.tvEpoch, e.tvRounds = tv, epoch, rounds
		return tv
	}
	return v
}

// tunedView repeats the server's overlay build: merged buckets to a
// flat store, journal replay, store back to a servable view.
func (m *mirror) tunedView(v *dynahist.View, t *tuner.Tuner) *dynahist.View {
	var st *histogram.Store
	m.tr.timed("tuner.convert", sideHandler, func() {
		pb := v.Buckets()
		ib := make([]histogram.Bucket, len(pb))
		for i, b := range pb {
			ib[i] = histogram.Bucket{Left: b.Left, Right: b.Right, Subs: b.Counters}
		}
		if len(pb) > 0 {
			st, _ = histogram.StoreOfBuckets(ib, len(pb[0].Counters))
		}
	})
	if st == nil {
		return nil
	}
	m.tr.timed("tuner.apply", sideHandler, func() { t.ApplyTo(st) })
	var tv *dynahist.View
	m.tr.timed("tuner.convert", sideHandler, func() {
		tuned := st.Buckets()
		out := make([]dynahist.Bucket, len(tuned))
		for i, b := range tuned {
			out[i] = dynahist.Bucket{Left: b.Left, Right: b.Right, Counters: b.Subs}
		}
		if h, err := dynahist.NewStaticFromBuckets(out); err == nil {
			tv, _ = h.View()
		}
	})
	return tv
}

// query mirrors POST /query: the epoch-keyed cache lookup, and on a
// miss request decoding, the tuned view, Describe, response encoding
// and the cache store.
func (m *mirror) query(name string, spec client.QuerySpec) {
	e := m.sites[0][name]
	body, _ := json.Marshal(queryRequest(spec)) // the client's encoding of the same spec
	epoch := e.epoch
	m.lookups++
	var hit bool
	m.tr.timed("server.cache_lookup", sideHandler, func() {
		if e.cacheEpoch == epoch {
			_, hit = e.cache[string(body)]
		}
	})
	if hit {
		m.hits++
		return
	}
	var req wire.QueryRequest
	m.tr.timed("server.json_decode", sideHandler, func() { _ = json.Unmarshal(body, &req) })
	v := m.view(e)
	var sum *dynahist.Summary
	m.tr.timed("histogram.describe", sideHandler, func() { sum, _ = v.Describe(describeSpec(req)) })
	var data []byte
	m.tr.timed("server.json_encode", sideHandler, func() {
		data, _ = json.Marshal(wire.QueryResponse{Total: sum.Total, Quantiles: sum.Quantiles, CDF: sum.CDF, PDF: sum.PDF, Ranges: sum.Ranges})
	})
	if epoch > e.cacheEpoch || e.cache == nil {
		e.cacheEpoch, e.cache = epoch, map[string][]byte{}
	}
	if len(e.cache) < maxCachedQueries {
		e.cache[string(body)] = data
	}
}

// feedback mirrors POST /feedback: the estimate from the current view,
// journaling, the epoch bump, and the tuned estimate after it.
func (m *mirror) feedback(name string, lo, hi, observed float64) {
	e := m.sites[0][name]
	body, _ := json.Marshal(wire.FeedbackRequest{Lo: lo, Hi: hi, Observed: observed})
	var req wire.FeedbackRequest
	m.tr.timed("server.json_decode", sideHandler, func() { _ = json.Unmarshal(body, &req) })
	est := m.view(e).EstimateRange(req.Lo, req.Hi)
	_ = e.tun.Observe(tuner.Record{Lo: req.Lo, Hi: req.Hi, Estimated: est, Observed: req.Observed})
	e.epoch++
	tuned := m.view(e).EstimateRange(req.Lo, req.Hi)
	m.tr.timed("server.json_encode", sideHandler, func() {
		_, _ = json.Marshal(wire.FeedbackResponse{Name: name, Lo: req.Lo, Hi: req.Hi, Observed: req.Observed,
			Estimated: est, TunedEstimate: tuned, JournalLen: e.tun.Len(), Rounds: e.tun.Rounds()})
	})
}

// describe mirrors client.Fanout.Describe over the given sites: each
// site's envelope handler, then the client's restore, per-site total,
// superposition, reduction, union build and Describe.
func (m *mirror) describe(sites []int, name string, spec client.QuerySpec) {
	blobs := make([][]byte, len(sites))
	for i, s := range sites {
		e := m.sites[s][name]
		m.pin(e, sideHandler)
		m.tr.timed("envelope.snapshot", sideHandler, func() { blobs[i], _ = e.h.Snapshot() })
		if m.tr.on {
			m.envBytes = append(m.envBytes, float64(len(blobs[i])))
		}
	}
	members := make([]dynahist.Histogram, len(blobs))
	for i, blob := range blobs {
		m.tr.timed("envelope.restore", sideClient, func() { members[i], _ = dynahist.Restore(blob) })
		m.tr.timed("shard.merge", sideClient, func() { members[i].Total() })
	}
	var bs []dynahist.Bucket
	m.tr.timed("union.superpose", sideClient, func() { bs, _ = dynahist.Superpose(members...) })
	if len(bs) > fanoutMaxBuckets {
		m.tr.timed("union.reduce", sideClient, func() { bs, _ = dynahist.Reduce(bs, fanoutMaxBuckets) })
	}
	var v *dynahist.View
	m.tr.timed("union.build", sideClient, func() {
		if g, err := dynahist.NewStaticFromBuckets(bs); err == nil {
			v, _ = g.View()
		}
	})
	m.tr.timed("histogram.describe", sideClient, func() { _, _ = v.Describe(describeSpec(queryRequest(spec))) })
}

func queryRequest(spec client.QuerySpec) wire.QueryRequest {
	req := wire.QueryRequest{Quantiles: spec.Quantiles, CDF: spec.CDF, PDF: spec.PDF, Buckets: spec.Buckets}
	for _, r := range spec.Ranges {
		req.Ranges = append(req.Ranges, wire.RangeQuery{Lo: r.Lo, Hi: r.Hi})
	}
	return req
}

func describeSpec(req wire.QueryRequest) dynahist.QuerySpec {
	spec := dynahist.QuerySpec{Quantiles: req.Quantiles, CDF: req.CDF, PDF: req.PDF, Buckets: req.Buckets}
	for _, r := range req.Ranges {
		spec.Ranges = append(spec.Ranges, dynahist.Range{Lo: r.Lo, Hi: r.Hi})
	}
	return spec
}
