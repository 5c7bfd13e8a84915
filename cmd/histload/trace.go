package main

// The traced run. It replays a workload's op streams from one client,
// one op at a time, against an in-process server (server.New with the
// histserved configuration, on a loopback listener). Each client call is
// a root span; the mirror pipeline then repeats the call's work layer by
// layer, recording child spans. Once a second a probe cycle sends one
// op of every kind to a separate histogram, so every layer is measured
// on every workload, and scrapes /metrics; every 5 s CheckpointNow runs.
//
// The first quarter of the run is untraced: the mirror catches up
// afterwards, and the difference between the two phases' median root
// latencies is the tracing overhead.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"dynahist"
	"dynahist/client"
	"dynahist/internal/server"
	"dynahist/internal/wal"
)

// Where a child span's work happens relative to its root.
const (
	sideRoot    = "root"    // the client call itself
	sideClient  = "client"  // inside the root, in the client
	sideHandler = "handler" // inside the root, in the server's handler
	sideAsync   = "async"   // outside the request: digester, waits
)

// The mirror gate: the mirror's handler work per request may stray from
// the server's own handler mean by gateTolerance before the breakdown
// is rejected. It applies to endpoints whose server handler mean is at
// least gateMinHandler and that served gateMinRequests requests. Below
// that, reading the request body and writing the response inside the
// handler — socket and net/http work the mirror does not repeat — and
// garbage-collection assists are a large share of the mean, and the
// ratio is reported but not gated.
const (
	gateTolerance   = 0.25
	gateMinHandler  = 500 * time.Microsecond
	gateMinRequests = 5
)

type span struct {
	Name     string `json:"name"`
	Trace    uint64 `json:"trace_id"`
	ID       uint64 `json:"span_id"`
	Parent   uint64 `json:"parent_id"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Side     string `json:"side"`
	Endpoint string `json:"endpoint,omitempty"`
	// Requests is how many server requests a root sent to Endpoint.
	Requests int `json:"requests,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. While on is false it records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	last  uint64
	root  uint64 // the root that child spans attach to
}

func (t *tracer) record(name, side string, start time.Time, d time.Duration) {
	t.last++
	t.spans = append(t.spans, span{
		Name: name, Trace: t.root, ID: t.last, Parent: t.root,
		Start: int64(start.Sub(t.t0)), End: int64(start.Sub(t.t0) + d), Side: side,
	})
}

// timed runs fn as a child span of the current root.
func (t *tracer) timed(name, side string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if t.on {
		t.record(name, side, start, d)
	}
	return d
}

// rootSpan runs fn, a client call sending requests requests to the
// server's endpoint, as the root of a new trace.
func (t *tracer) rootSpan(name, endpoint string, requests int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if t.on {
		t.last++
		t.root = t.last
		t.spans = append(t.spans, span{
			Name: name, Trace: t.root, ID: t.root, Start: int64(start.Sub(t.t0)), End: int64(start.Sub(t.t0) + d),
			Side: sideRoot, Endpoint: endpoint, Requests: requests,
		})
	}
	return d, err
}

// inprocServer is a server.Server on a loopback listener.
type inprocServer struct {
	srv *server.Server
	hs  *http.Server
}

func (s *inprocServer) close() {
	_ = s.hs.Close()
	_ = s.srv.Close()
}

// inprocConfig is histserved's configuration under serverArgs, with the
// checkpoint loop replaced by the traced run's own timed calls.
func inprocConfig(dir string, site int, w *workload) server.Config {
	cfg := server.Config{
		CatalogDir: filepath.Join(dir, "catalog"),
		Logger:     log.New(io.Discard, "", 0),
		WAL:        wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncInterval, SyncEvery: 100 * time.Millisecond},
		Tuning:     server.TuningConfig{Enabled: true},
		Metrics:    true,
	}
	if w.sites > 1 {
		cfg.SiteID = fmt.Sprintf("s%d", site)
	}
	return cfg
}

func (e *env) startInprocCluster(w *workload, dir string) (*cluster, error) {
	c := &cluster{}
	for s := 0; s < w.sites; s++ {
		srv, err := server.New(inprocConfig(filepath.Join(dir, fmt.Sprintf("site%d", s)), s, w))
		if err != nil {
			c.kill()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = srv.Close()
			c.kill()
			return nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }() // returns once close shuts hs down
		c.inproc = append(c.inproc, &inprocServer{srv: srv, hs: hs})
		url := "http://" + ln.Addr().String()
		c.clients = append(c.clients, client.New(url, e.http))
		c.urls = append(c.urls, url)
	}
	if w.sites > 1 {
		c.fan = client.NewFanout(c.urls, e.http)
	}
	return c, nil
}

// tracedRun is the state of one traced replay.
type tracedRun struct {
	ctx      context.Context
	e        *env
	c        *cluster
	st       *state
	m        *mirror
	tr       *tracer
	probeFan *client.Fanout
	probeRng *rand.Rand

	// deferred holds mirror work queued while the mirror is not traced;
	// it runs, in order, before tracing starts.
	deferred []func()
	traced   bool

	rootMS            []float64 // op roots of the current phase
	digestLags        []float64
	attempted, failed int
}

func (r *tracedRun) mirrorDo(fn func()) {
	if r.traced {
		fn()
		return
	}
	r.deferred = append(r.deferred, fn)
}

func (r *tracedRun) fail(err error) {
	r.failed++
	fmt.Fprintf(r.e.log, "histload: traced op failed: %v\n", err)
}

// exec sends one op from the client and has the mirror repeat it.
func (r *tracedRun) exec(o op, probe bool) {
	name := histName(o.hist)
	t := r.st.truthOf(o.hist)
	cl := r.c.clients[0]
	r.attempted++
	var (
		d   time.Duration
		err error
	)
	switch o.kind {
	case opInsert:
		var ack client.Ack
		start := time.Now()
		d, err = r.tr.rootSpan("client.insert", "insert", 1, func() (err error) {
			ack, err = cl.InsertBinaryAck(r.ctx, name, o.values)
			return err
		})
		if err != nil {
			r.fail(err)
			return
		}
		t.add(o.values)
		t.acked++
		// Every batch is waited for until it is readable: the next op
		// then finds the server in the state the mirror assumes, with
		// the fold done. The wait runs before the mirror, so the
		// mirror's work does not delay the moment the batch is seen.
		for {
			ws, err := cl.WALStatus(r.ctx)
			if err != nil {
				r.fail(err)
				return
			}
			if r.traced {
				r.digestLags = append(r.digestLags, float64(ws.DigestLag))
			}
			if ws.DigestedLSN >= ack.LSN {
				break
			}
		}
		visible := time.Since(start)
		r.mirrorDo(func() {
			fold := r.m.insert(0, name, o.values)
			if r.tr.on {
				// Digester queue wait: visible − ack − fold.
				r.tr.record("server.digest_wait", sideAsync, start.Add(d+fold), max(visible-d-fold, 0))
			}
		})
	case opQuery:
		spec := r.st.in.shapes[o.shape]
		d, err = r.tr.rootSpan("client.query", "query", 1, func() error {
			_, err := cl.Query(r.ctx, name, spec)
			return err
		})
		r.mirrorDo(func() { r.m.query(name, spec) })
	case opFeedback:
		observed := t.rangeCount(o.lo, o.hi)
		d, err = r.tr.rootSpan("client.feedback", "feedback", 1, func() error {
			_, err := cl.Feedback(r.ctx, name, o.lo, o.hi, observed)
			return err
		})
		r.mirrorDo(func() { r.m.feedback(name, o.lo, o.hi, observed) })
	case opDescribe:
		spec := r.st.in.shapes[o.shape]
		fan, sites := r.c.fan, []int{0, 1}
		if probe {
			fan, sites = r.probeFan, []int{0}
		}
		d, err = r.tr.rootSpan("client.describe", "envelope", len(sites), func() error {
			g, err := fan.Describe(r.ctx, name, spec, client.DescribeOptions{MaxBuckets: fanoutMaxBuckets})
			if err == nil && g.Partial {
				err = fmt.Errorf("partial global read")
			}
			return err
		})
		r.mirrorDo(func() { r.m.describe(sites, name, spec) })
	}
	if err != nil {
		r.fail(err)
		return
	}
	if !probe {
		r.rootMS = append(r.rootMS, ms(d))
	}
}

// probeCycle sends one op of each kind to the probe histogram and
// scrapes /metrics.
func (r *tracedRun) probeCycle() error {
	lo, hi := feedbackRange(r.probeRng)
	for _, o := range []op{
		{kind: opInsert, hist: probeHist, values: r.st.probeValues.next(batchValues), poll: true},
		{kind: opFeedback, hist: probeHist, lo: lo, hi: hi},
		{kind: opQuery, hist: probeHist, shape: r.probeRng.Intn(numShapes)},
		{kind: opDescribe, hist: probeHist, shape: r.probeRng.Intn(numShapes)},
	} {
		r.exec(o, true)
	}
	_, err := r.tr.rootSpan("obs.scrape", "metrics", 1, func() error {
		_, err := r.scrape(0)
		return err
	})
	return err
}

// scrape fetches site's /metrics exposition.
func (r *tracedRun) scrape(site int) (string, error) {
	url := r.c.urls[site] + "/metrics"
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := r.e.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return string(body), nil
}

func (r *tracedRun) checkpoint() error {
	for s, srv := range r.c.inproc {
		_, err := r.tr.rootSpan("server.checkpoint", "", 0, srv.srv.CheckpointNow)
		if err != nil {
			return fmt.Errorf("checkpoint of site %d: %w", s, err)
		}
	}
	return nil
}

// phase replays the op streams, one op at a time, for d.
func (r *tracedRun) phase(next func() op, d time.Duration) error {
	var lastProbe, lastCkpt time.Time
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if r.ctx.Err() != nil {
			return r.ctx.Err()
		}
		if time.Since(lastCkpt) >= 5*time.Second {
			lastCkpt = time.Now()
			if err := r.checkpoint(); err != nil {
				return err
			}
		}
		if time.Since(lastProbe) >= time.Second {
			lastProbe = time.Now()
			if err := r.probeCycle(); err != nil {
				return err
			}
		}
		r.exec(next(), false)
	}
	return nil
}

// endpointTimes reads each endpoint's handler latency sum (seconds) and
// request count from a /metrics exposition.
func endpointTimes(expo string) map[string][2]float64 {
	out := map[string][2]float64{}
	for _, line := range strings.Split(expo, "\n") {
		name, rest, ok := strings.Cut(line, "{endpoint=\"")
		if !ok || (name != "dynahist_http_request_seconds_sum" && name != "dynahist_http_request_seconds_count") {
			continue
		}
		ep, val, ok := strings.Cut(rest, "\"} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		cur := out[ep]
		if strings.HasSuffix(name, "_sum") {
			cur[0] += v
		} else {
			cur[1] += v
		}
		out[ep] = cur
	}
	return out
}

func (r *tracedRun) handlerTimes() (map[string][2]float64, error) {
	total := map[string][2]float64{}
	for s := range r.c.clients {
		expo, err := r.scrape(s)
		if err != nil {
			return nil, err
		}
		for ep, v := range endpointTimes(expo) {
			cur := total[ep]
			total[ep] = [2]float64{cur[0] + v[0], cur[1] + v[1]}
		}
	}
	return total, nil
}

// traceWorkload is the traced run of w; it writes the spans to
// dir/trace-<workload>.jsonl.
func (e *env) traceWorkload(ctx context.Context, w *workload, seed int64, seconds float64, dir string) (*result, error) {
	in, err := newInputs(w, seed)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(e.work, w.name+"-traced")
	c, st, _, err := e.setUp(ctx, in, work, e.startInprocCluster)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer c.kill()
	tr := &tracer{t0: time.Now()}
	m, err := newMirror(tr, w.sites, wal.Options{Dir: filepath.Join(work, "mirror-wal"), Sync: wal.SyncInterval})
	if err != nil {
		return nil, err
	}
	defer m.close()
	if err := loadMirror(m, st); err != nil {
		return nil, err
	}
	opts := client.CreateOptions{Name: histName(probeHist), Family: client.FamilyDADO, MemBytes: 1024, Shards: 4}
	if _, err := c.clients[0].Create(ctx, opts); err != nil {
		return nil, err
	}
	if err := m.create(0, histName(probeHist)); err != nil {
		return nil, err
	}
	r := &tracedRun{
		ctx: ctx, e: e, c: c, st: st, m: m, tr: tr,
		probeFan: client.NewFanout(c.urls[:1], e.http),
		probeRng: rand.New(rand.NewSource(seed * 17)),
	}

	// One client replays the streams in turn: the concurrent clients'
	// ops, or the open loop's writer and reader, interleaved.
	streams := st.streams()
	k := 0
	next := func() op {
		o := streams[k%len(streams)]()
		k++
		return o
	}
	total := time.Duration(seconds * float64(time.Second))
	fmt.Fprintf(e.log, "histload: %s: traced run\n", w.name)
	if err := r.phase(next, total/4); err != nil {
		return nil, err
	}
	untraced := slices.Clone(r.rootMS)
	r.traced = true
	for _, fn := range r.deferred {
		fn()
	}
	r.deferred, r.rootMS, r.attempted, r.failed = nil, nil, 0, 0
	before, err := r.handlerTimes()
	if err != nil {
		return nil, err
	}
	statsBefore, err := c.clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	walBefore := m.wal.Status().TotalBytes
	fsyncsBefore, valuesBefore, lookupsBefore, hitsBefore := m.wal.Fsyncs(), m.walValues, m.lookups, m.hits
	tr.on = true
	t0 := time.Now()
	if err := r.phase(next, total-total/4); err != nil {
		return nil, err
	}
	elapsed := time.Since(t0).Seconds()
	tr.on = false
	after, err := r.handlerTimes()
	if err != nil {
		return nil, err
	}
	statsAfter, err := c.clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}

	res := newResult(w, seed, true, seconds)
	res.Attempted, res.Failed = r.attempted, r.failed
	a := analyze(tr.spans)
	for _, d := range perLayer {
		if base, ok := strings.CutSuffix(d.name, "_us"); ok && a.durs[base] != nil {
			res.set(d.name, mean(a.durs[base])/1e3, d.unit, len(a.durs[base]))
		} else if base, ok := strings.CutSuffix(d.name, "_ms"); ok && a.durs[base] != nil {
			res.set(d.name, mean(a.durs[base])/1e6, d.unit, len(a.durs[base]))
		}
	}
	res.set("server.transport_us", mean(a.transport)/1e3, "us", len(a.transport))
	res.set("shard.merges_per_op", float64(len(a.durs["shard.merge"]))/float64(max(a.ops, 1)), "count", a.ops)
	res.set("shard.merged_buckets", mean(m.mergedBuckets), "count", len(m.mergedBuckets))
	res.set("tuner.builds_per_query", float64(len(a.durs["tuner.apply"]))/float64(max(a.queries, 1)), "count", a.queries)
	res.set("envelope.bytes", mean(m.envBytes), "B", len(m.envBytes))
	res.set("wal.fsyncs_per_s", float64(m.wal.Fsyncs()-fsyncsBefore)/elapsed, "1/s", int(m.wal.Fsyncs()-fsyncsBefore))
	res.set("wal.bytes_per_value", float64(m.wal.Status().TotalBytes-walBefore)/float64(max(m.walValues-valuesBefore, 1)), "B", m.walValues-valuesBefore)
	lags := summarize(r.digestLags)
	res.set("server.digest_lag_p99", lags.p99, "count", lags.n)
	hits := statsAfter.Cache.Hits - statsBefore.Cache.Hits
	lookups := hits + statsAfter.Cache.Misses - statsBefore.Cache.Misses
	res.set("server.cache_hit_ratio", float64(hits)/float64(max(lookups, 1)), "1", int(lookups))
	res.set("trace.overhead_us", (median(r.rootMS)-median(untraced))*1e3, "us", len(r.rootMS))
	var unmeasured []string
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			unmeasured = append(unmeasured, d.name)
			res.set(d.name, 0, d.unit, 0)
		}
	}
	res.check("every_layer_measured", len(unmeasured) == 0, strings.Join(unmeasured, " "))

	res.check("mirror_cache_matches_server", uint64(m.hits-hitsBefore) == hits && uint64(m.lookups-lookupsBefore) == lookups,
		fmt.Sprintf("mirror %d/%d hits, server %d/%d", m.hits-hitsBefore, m.lookups-lookupsBefore, hits, lookups))
	for _, ep := range slices.Sorted(maps.Keys(a.handler)) {
		srv := [2]float64{after[ep][0] - before[ep][0], after[ep][1] - before[ep][1]}
		mir := a.handler[ep]
		if srv[1] == 0 || mir[1] == 0 {
			continue
		}
		srvMean := srv[0] * 1e9 / srv[1] // ns
		ratio := (mir[0] / mir[1]) / srvMean
		res.info("gate."+ep+"_ratio", ratio, "1", int(srv[1]))
		if srvMean < float64(gateMinHandler) || srv[1] < gateMinRequests {
			continue
		}
		res.check("mirror_gate_"+ep, math.Abs(ratio-1) <= gateTolerance,
			fmt.Sprintf("mirrored handler work %.1fus/request, server handler %.1fus/request (%d requests)",
				mir[0]/mir[1]/1e3, srv[0]*1e6/srv[1], int(srv[1])))
	}
	for s, cl := range c.clients {
		if _, err := waitDigested(ctx, cl, 0, time.Millisecond); err != nil {
			return nil, err
		}
		names := slices.Sorted(maps.Keys(m.sites[s]))
		ok, detail := matchMirror(ctx, cl, names, func(name string) *dynahist.Sharded { return m.sites[s][name].h })
		res.check(fmt.Sprintf("site%d_matches_mirror", s), ok, detail)
	}
	res.Layers = a.table()
	return res, writeSpans(filepath.Join(dir, "trace-"+w.name+".jsonl"), tr.spans)
}

// loadMirror brings the mirror to the state set-up left the servers in:
// the same preload batches and set-up feedback, in the same order.
func loadMirror(m *mirror, st *state) error {
	w := st.in.w
	fresh := newState(st.in)
	for s := 0; s < w.sites; s++ {
		for h := 0; h < w.hists; h++ {
			name := histName(h)
			if err := m.create(s, name); err != nil {
				return err
			}
			e := m.sites[s][name]
			for _, b := range fresh.preloadBatches(h, s) {
				if err := e.h.InsertBatch(b); err != nil {
					return err
				}
				fresh.truth[h].add(b)
				e.dirty = true
				e.epoch++
			}
		}
	}
	for h := 0; h < w.hists && w.feedback > 0; h++ {
		for _, r := range fresh.setupFeedback(h) {
			m.feedback(histName(h), r[0], r[1], fresh.truth[h].rangeCount(r[0], r[1]))
		}
	}
	return nil
}

// analysis is what the per-layer metrics are computed from.
type analysis struct {
	durs      map[string][]float64  // span durations in ns, by name
	transport []float64             // per client op: root minus mirrored client and handler work, ns
	handler   map[string][2]float64 // endpoint → mirrored handler ns, server requests
	ops       int                   // client ops the mirror repeated
	queries   int
	rootNS    float64 // summed duration of those ops
}

// mirrored are the endpoints whose handler work the mirror repeats.
var mirrored = map[string]bool{"insert": true, "query": true, "feedback": true, "envelope": true}

func analyze(spans []span) *analysis {
	a := &analysis{durs: map[string][]float64{}, handler: map[string][2]float64{}}
	children := map[uint64][]span{}
	for _, s := range spans {
		a.durs[s.Name] = append(a.durs[s.Name], float64(s.dur()))
		if s.Side != sideRoot {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.Side != sideRoot || !mirrored[s.Endpoint] {
			continue
		}
		a.ops++
		if s.Name == "client.query" {
			a.queries++
		}
		var cl, hd float64
		for _, c := range children[s.ID] {
			switch c.Side {
			case sideClient:
				cl += float64(c.dur())
			case sideHandler:
				hd += float64(c.dur())
			}
		}
		a.transport = append(a.transport, float64(s.dur())-cl-hd)
		h := a.handler[s.Endpoint]
		a.handler[s.Endpoint] = [2]float64{h[0] + hd, h[1] + float64(s.Requests)}
		a.rootNS += float64(s.dur())
	}
	return a
}

// layerRow is one line of the traced run's per-layer table.
type layerRow struct {
	Name   string  `json:"name"`
	N      int     `json:"n"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	// Share is the span's summed time over the summed time of the
	// client ops it broke down.
	Share float64 `json:"share"`
}

func (a *analysis) table() []layerRow {
	var rows []layerRow
	for _, name := range slices.Sorted(maps.Keys(a.durs)) {
		d := a.durs[name]
		l := summarize(d)
		var sum float64
		for _, x := range d {
			sum += x
		}
		rows = append(rows, layerRow{Name: name, N: l.n, MeanUS: mean(d) / 1e3, P50US: l.p50 / 1e3, P99US: l.p99 / 1e3, Share: sum / math.Max(a.rootNS, 1)})
	}
	rows = append(rows, layerRow{Name: "server.transport", N: len(a.transport), MeanUS: mean(a.transport) / 1e3,
		P50US: summarize(a.transport).p50 / 1e3, P99US: summarize(a.transport).p99 / 1e3, Share: mean(a.transport) * float64(len(a.transport)) / math.Max(a.rootNS, 1)})
	return rows
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
