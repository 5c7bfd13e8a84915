package main

// The end-to-end run: set-up, warm-up and the timed phase against real
// histserved processes, driven only through the public client package,
// then the correctness checks.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"dynahist"
	"dynahist/client"
	"dynahist/internal/dist"
	"dynahist/internal/metric"
	"dynahist/internal/server"
	"dynahist/internal/wire"
)

const (
	// maxInFlight bounds the generator: requests in flight and
	// connections per server. It equals the CPU count of the 2-core box
	// the benchmark was designed on.
	maxInFlight = 2
	// setups is how many times each run sets up from scratch; setup_s
	// is their median and the last one is kept for the timed phase.
	setups = 3
	// warmup runs the workload untimed first, so caches fill and lazy
	// set-up finishes before timing.
	warmup = time.Second
)

// env is what one invocation shares across workload runs.
type env struct {
	work string // scratch directory for server data
	bin  string // histserved binary
	http *http.Client
	log  io.Writer // progress notes
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: maxInFlight, MaxIdleConnsPerHost: maxInFlight},
	}
}

// cluster is the set of servers one set-up started: histserved
// processes, or in-process servers for the traced run.
type cluster struct {
	procs   []*serverProc
	inproc  []*inprocServer
	urls    []string
	args    [][]string
	dirs    []string
	clients []*client.Client
	fan     *client.Fanout
}

// serverArgs is the common server configuration; every workload runs
// the same flush policy (fsync every 100 ms).
func serverArgs(dir string, site int, w *workload) []string {
	args := []string{
		"-wal-dir", filepath.Join(dir, "wal"), "-wal-sync", "interval",
		"-catalog", filepath.Join(dir, "catalog"), "-checkpoint", "5s",
		"-metrics", "-tuning",
	}
	if w.sites > 1 {
		args = append(args, "-site-id", fmt.Sprintf("s%d", site))
	}
	return args
}

func (e *env) startCluster(w *workload, dir string) (*cluster, error) {
	c := &cluster{}
	for s := 0; s < w.sites; s++ {
		sdir := filepath.Join(dir, fmt.Sprintf("site%d", s))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			c.kill()
			return nil, err
		}
		args := serverArgs(sdir, s, w)
		p, err := startServer(e.bin, args, filepath.Join(sdir, "server.log"))
		if err != nil {
			c.kill()
			return nil, err
		}
		c.procs, c.args, c.dirs = append(c.procs, p), append(c.args, args), append(c.dirs, sdir)
		c.clients = append(c.clients, client.New(p.url, e.http))
		c.urls = append(c.urls, p.url)
	}
	if w.sites > 1 {
		c.fan = client.NewFanout(c.urls, e.http)
	}
	return c, nil
}

func (c *cluster) kill() {
	for _, p := range c.procs {
		p.kill()
	}
	for _, s := range c.inproc {
		s.close()
	}
}

// restart SIGKILLs site s and starts it again on the same directories.
func (c *cluster) restart(e *env, s int) error {
	c.procs[s].kill()
	p, err := startServer(e.bin, c.args[s], filepath.Join(c.dirs[s], "server-restart.log"))
	if err != nil {
		return err
	}
	c.procs[s], c.clients[s], c.urls[s] = p, client.New(p.url, e.http), p.url
	return nil
}

func (c *cluster) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, p := range c.procs {
		t, err := cpuTime(p.pid())
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// waitDigested polls the server until its digester has folded every
// record up to lsn; pause is the wait between polls.
func waitDigested(ctx context.Context, cl *client.Client, lsn uint64, pause time.Duration) (client.WALStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	for {
		st, err := cl.WALStatus(ctx)
		if err != nil {
			return st, err
		}
		if st.DigestedLSN >= lsn && (lsn > 0 || st.DigestLag == 0) {
			return st, nil
		}
		if pause > 0 {
			time.Sleep(pause)
		}
	}
}

// setUp starts the workload's servers and brings them to the state the
// timed phase starts from: histograms created, preload digested and
// feedback journaled. The returned duration is one setup_s sample.
func (e *env) setUp(ctx context.Context, in *inputs, dir string, start func(*workload, string) (*cluster, error)) (*cluster, *state, time.Duration, error) {
	w := in.w
	st := newState(in)
	batches := make([][][][]float64, w.sites)
	for s := range batches {
		batches[s] = make([][][]float64, w.hists)
		for h := range batches[s] {
			batches[s][h] = st.preloadBatches(h, s)
		}
	}
	t0 := time.Now()
	c, err := start(w, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	fail := func(err error) (*cluster, *state, time.Duration, error) {
		c.kill()
		return nil, nil, 0, err
	}
	for _, cl := range c.clients {
		if err := cl.Healthy(ctx); err != nil {
			return fail(err)
		}
		for h := 0; h < w.hists; h++ {
			opts := client.CreateOptions{Name: histName(h), Family: client.FamilyDADO, MemBytes: 1024, Shards: 4}
			if _, err := cl.Create(ctx, opts); err != nil {
				return fail(fmt.Errorf("creating %s: %w", histName(h), err))
			}
		}
	}
	if w.preload > 0 {
		if err := preload(ctx, c, st, batches); err != nil {
			return fail(err)
		}
	}
	for h := 0; h < w.hists && w.feedback > 0; h++ {
		for _, r := range st.setupFeedback(h) {
			if _, err := c.clients[0].Feedback(ctx, histName(h), r[0], r[1], st.truth[h].rangeCount(r[0], r[1])); err != nil {
				return fail(fmt.Errorf("set-up feedback: %w", err))
			}
		}
	}
	return c, st, time.Since(t0), nil
}

// preload sends every site's set-up batches from maxInFlight
// goroutines, each histogram's batches in order from one of them, and
// waits until every site has digested them.
func preload(ctx context.Context, c *cluster, st *state, batches [][][][]float64) error {
	w := st.in.w
	lastLSN := make([][maxInFlight]uint64, w.sites)
	errs := make([]error, maxInFlight)
	var wg sync.WaitGroup
	for g := 0; g < maxInFlight; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < w.sites*w.hists; i += maxInFlight {
				s, h := i/w.hists, i%w.hists
				for _, b := range batches[s][h] {
					ack, err := c.clients[s].InsertBinaryAck(ctx, histName(h), b)
					if err != nil {
						errs[g] = fmt.Errorf("preloading %s: %w", histName(h), err)
						return
					}
					st.truth[h].add(b)
					lastLSN[s][g] = max(lastLSN[s][g], ack.LSN)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for s, cl := range c.clients {
		if _, err := waitDigested(ctx, cl, max(lastLSN[s][0], lastLSN[s][1]), time.Millisecond); err != nil {
			return fmt.Errorf("waiting for preload digestion: %w", err)
		}
	}
	return nil
}

// sample is one op's latency in milliseconds and when it completed.
type sample struct {
	at time.Time
	ms float64
}

// recorder collects one sender's samples, in milliseconds.
type recorder struct {
	lat               [4][]sample // by opKind; failures enter as +Inf
	visible           []float64   // ingest send → batch readable
	lag               []float64   // open loop: how late the sender woke
	attempted, failed int
}

func (r *recorder) record(k opKind, start time.Time, failed bool) {
	now := time.Now()
	v := ms(now.Sub(start))
	if failed {
		r.failed++
		v = math.Inf(1)
	}
	r.lat[k] = append(r.lat[k], sample{now, v})
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.visible = append(r.visible, o.visible...)
	r.lag = append(r.lag, o.lag...)
	r.attempted += o.attempted
	r.failed += o.failed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// send issues one op and records its latency from start.
func send(ctx context.Context, c *cluster, st *state, o op, start time.Time, rec *recorder) {
	name := histName(o.hist)
	rec.attempted++
	var err error
	switch o.kind {
	case opInsert:
		var ack client.Ack
		ack, err = c.clients[0].InsertBinaryAck(ctx, name, o.values)
		t := st.truthOf(o.hist)
		if err != nil {
			t.mu.Lock()
			t.lost = true
			t.mu.Unlock()
			break
		}
		t.add(o.values)
		t.mu.Lock()
		t.acked++
		t.mu.Unlock()
		rec.record(opInsert, start, false)
		if o.poll {
			if _, err := waitDigested(ctx, c.clients[0], ack.LSN, 0); err != nil {
				rec.failed++
				rec.visible = append(rec.visible, math.Inf(1))
				return
			}
			rec.visible = append(rec.visible, ms(time.Since(start)))
		}
		return
	case opQuery:
		_, err = c.clients[0].Query(ctx, name, st.in.shapes[o.shape])
	case opFeedback:
		_, err = c.clients[0].Feedback(ctx, name, o.lo, o.hi, st.truth[o.hist].rangeCount(o.lo, o.hi))
	case opDescribe:
		var g client.GlobalSummary
		g, err = c.fan.Describe(ctx, name, st.in.shapes[o.shape], client.DescribeOptions{MaxBuckets: fanoutMaxBuckets})
		if err == nil && g.Partial {
			err = errors.New("partial global read")
		}
	}
	rec.record(o.kind, start, err != nil)
}

// sendFunc issues one op whose latency counts from start.
type sendFunc func(o op, start time.Time, rec *recorder)

// closedLoop runs one sender per stream, each sending its next op as
// soon as the previous one completes, for d or until ctx ends.
func closedLoop(ctx context.Context, streams []func() op, d time.Duration, send sendFunc) *recorder {
	deadline := time.Now().Add(d)
	recs := make([]recorder, len(streams))
	var wg sync.WaitGroup
	for i, next := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				send(next(), time.Now(), &recs[i])
			}
		}()
	}
	wg.Wait()
	return mergeRecorders(recs)
}

// openLoop runs one sender per stream, each sending rate ops per second
// on a fixed schedule whatever the server's speed, for d. The streams'
// schedules are staggered evenly within the interval, so their ops do
// not all fall due at the same instant. Latency is timed from each op's
// due time, so a stall also counts against the ops queued behind it;
// lag records how late a sleeping sender woke. It stops early when ctx
// ends.
func openLoop(ctx context.Context, streams []func() op, rate int, d time.Duration, send sendFunc) *recorder {
	interval := time.Second / time.Duration(rate)
	start := time.Now()
	recs := make([]recorder, len(streams))
	var wg sync.WaitGroup
	for i, next := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recs[i]
			t0 := start.Add(time.Duration(i) * interval / time.Duration(len(streams)))
			for k := 0; ; k++ {
				due := t0.Add(time.Duration(k) * interval)
				if due.Sub(start) >= d || ctx.Err() != nil {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					rec.lag = append(rec.lag, ms(time.Since(due)))
				}
				send(next(), due, rec)
			}
		}()
	}
	wg.Wait()
	return mergeRecorders(recs)
}

func mergeRecorders(recs []recorder) *recorder {
	out := &recorder{}
	for i := range recs {
		out.merge(&recs[i])
	}
	return out
}

// runWorkload is one end-to-end run of w.
func (e *env) runWorkload(ctx context.Context, w *workload, seed int64, seconds float64) (*result, error) {
	in, err := newInputs(w, seed)
	if err != nil {
		return nil, err
	}
	res := newResult(w, seed, false, seconds)
	var (
		c          *cluster
		st         *state
		setupTimes []float64
	)
	for i := 0; i < setups; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("%s-%d", w.name, i))
		var dt time.Duration
		if c, st, dt, err = e.setUp(ctx, in, dir, e.startCluster); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, dt.Seconds())
		if i < setups-1 {
			c.kill()
			_ = os.RemoveAll(dir)
		}
	}
	defer c.kill()
	_, setupMed, _ := quartiles(setupTimes)
	res.set("setup_s", setupMed, "s", len(setupTimes))

	streams := st.streams()
	do := func(o op, start time.Time, rec *recorder) { send(ctx, c, st, o, start, rec) }
	loop := func(d time.Duration) *recorder {
		if w.openLoop {
			return openLoop(ctx, streams, w.rate, d, do)
		}
		return closedLoop(ctx, streams, d, do)
	}
	fmt.Fprintf(e.log, "histload: %s: set-up done (%.2fs median), warming up\n", w.name, setupMed)
	loop(warmup)
	statsBefore, err := c.clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	cpuBefore, err := c.cpu()
	if err != nil {
		return nil, err
	}
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() { rssDone <- sampleRSS(c.procs, stopRSS) }()
	t0 := time.Now()
	rec := loop(time.Duration(seconds * float64(time.Second)))
	elapsed := time.Since(t0).Seconds()
	close(stopRSS)
	rssSamples := <-rssDone
	cpuAfter, err := c.cpu()
	if err != nil {
		return nil, err
	}
	statsAfter, err := c.clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}

	res.Attempted, res.Failed = rec.attempted, rec.failed
	done := float64(rec.attempted - rec.failed)
	rate, windows := windowedRate(rec, t0, elapsed)
	res.set("ops_per_s", rate, "1/s", windows)
	primary := inOrder(rec.lat[w.primary])
	prim := summarize(primary)
	res.set("p50_ms", prim.p50, "ms", prim.n)
	p99, chunks := chunkedPercentile(primary, 99, 1000)
	res.set("p99_ms", p99, "ms", chunks)
	res.set("server_cpu_us_per_op", float64(cpuAfter-cpuBefore)/float64(time.Microsecond)/max(done, 1), "us", rec.attempted-rec.failed)
	res.set("server_rss_mb", median(rssSamples), "MB", len(rssSamples))
	res.info("latency_top_pct", prim.top, "%", prim.n)
	res.info("latency_top_ms", prim.topValue, "ms", prim.n)
	res.info("fail_ratio", float64(rec.failed)/float64(max(rec.attempted, 1)), "1", rec.attempted)
	switch w.name {
	case "ingest":
		res.info("values_per_s", done*batchValues/elapsed, "1/s", rec.attempted-rec.failed)
		vis := summarize(rec.visible)
		res.info("visible_p50_ms", vis.p50, "ms", vis.n)
		res.info("visible_p99_ms", vis.p99, "ms", vis.n)
	case "mixed":
		ack := summarize(inOrder(rec.lat[opInsert]))
		res.info("ack_p50_ms", ack.p50, "ms", ack.n)
		res.info("ack_p99_ms", ack.p99, "ms", ack.n)
		fb := summarize(inOrder(rec.lat[opFeedback]))
		res.info("feedback_p50_ms", fb.p50, "ms", fb.n)
		lag := summarize(rec.lag)
		res.info("gen_lag_p99_ms", lag.p99, "ms", lag.n)
	}
	if w.primary == opQuery {
		hits := statsAfter.Cache.Hits - statsBefore.Cache.Hits
		lookups := hits + statsAfter.Cache.Misses - statsBefore.Cache.Misses
		res.info("cache_hit_ratio", float64(hits)/float64(max(lookups, 1)), "1", int(lookups))
	}

	if err := e.checkRun(ctx, c, st, res); err != nil {
		return nil, err
	}
	return res, nil
}

// inOrder returns the samples' latencies in completion order.
func inOrder(samples []sample) []float64 {
	s := slices.Clone(samples)
	slices.SortFunc(s, func(a, b sample) int { return a.at.Compare(b.at) })
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.ms
	}
	return out
}

// windowedRate is the median, over the timed phase's whole seconds, of
// the ops completed in each second, and the number of seconds. A burst
// of interference from outside the benchmark moves a few seconds, not
// the median.
func windowedRate(rec *recorder, t0 time.Time, elapsed float64) (float64, int) {
	counts := make([]float64, max(int(elapsed), 1))
	for _, samples := range rec.lat {
		for _, x := range samples {
			if i := int(x.at.Sub(t0).Seconds()); !math.IsInf(x.ms, 1) && i < len(counts) {
				counts[i]++
			}
		}
	}
	return median(counts), len(counts)
}

// sampleRSS sums the servers' resident set sizes every rssEvery until
// stop is closed. The median of these samples is steadier than the
// peak, which lands wherever a garbage collection cycle happens to.
func sampleRSS(procs []*serverProc, stop <-chan struct{}) []float64 {
	const rssEvery = 250 * time.Millisecond
	t := time.NewTicker(rssEvery)
	defer t.Stop()
	var out []float64
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
			var sum float64
			for _, p := range procs {
				mb, err := residentMB(p.pid())
				if err != nil {
					return out
				}
				sum += mb
			}
			out = append(out, sum)
		}
	}
}

// probeSpec is the fixed spec the bit-identity checks describe.
var probeSpec = func() dynahist.QuerySpec {
	s := dynahist.QuerySpec{Buckets: true}
	for q := 1; q <= 99; q += 7 {
		s.Quantiles = append(s.Quantiles, float64(q)/100)
	}
	for x := 0; x <= domain; x += 250 {
		s.CDF = append(s.CDF, float64(x))
		s.PDF = append(s.PDF, float64(x))
		s.Ranges = append(s.Ranges, dynahist.Range{Lo: float64(x), Hi: float64(x + 499)})
	}
	return s
}()

// checkRun drains the servers and runs the correctness checks, then
// measures est_ks from the served bucket lists.
func (e *env) checkRun(ctx context.Context, c *cluster, st *state, res *result) error {
	w := st.in.w
	for _, cl := range c.clients {
		if _, err := waitDigested(ctx, cl, 0, time.Millisecond); err != nil {
			return fmt.Errorf("draining: %w", err)
		}
	}
	want := func(s, h int) float64 {
		if w.sites > 1 {
			return float64(w.preload)
		}
		return st.truth[h].total()
	}
	ok, detail := totalsMatch(ctx, c, w, st, want)
	res.check("totals_equal_acked", ok, detail)
	if w.name == "ingest" || w.name == "query" {
		mirror, err := replayMirror(st)
		if err != nil {
			return err
		}
		names := make([]string, w.hists)
		for h := range names {
			names[h] = histName(h)
		}
		ok, detail := matchMirror(ctx, c.clients[0], names, func(name string) *dynahist.Sharded { return mirror[name] })
		res.check("envelope_matches_mirror", ok, detail)
	}

	var ks float64 // mean over the histograms
	for h := 0; h < w.hists; h++ {
		var bs []client.Bucket
		if w.sites > 1 {
			g, err := c.fan.Describe(ctx, histName(h), client.QuerySpec{Buckets: true}, client.DescribeOptions{MaxBuckets: fanoutMaxBuckets})
			if err != nil {
				return fmt.Errorf("global buckets: %w", err)
			}
			var siteSum float64
			for _, sr := range g.Sites {
				siteSum += sr.Total
			}
			ok := !g.Partial && math.Abs(g.Total-siteSum) <= 1e-9*siteSum
			res.check(fmt.Sprintf("global_total_%s", histName(h)), ok, fmt.Sprintf("global %v, site sum %v", g.Total, siteSum))
			bs = g.Buckets
		} else {
			var err error
			if bs, err = c.clients[0].Buckets(ctx, histName(h)); err != nil {
				return err
			}
		}
		v, err := ksOf(bs, st.truth[h].t)
		if err != nil {
			return fmt.Errorf("est_ks of %s: %w", histName(h), err)
		}
		ks += v / float64(w.hists)
	}
	res.set("est_ks", ks, "1", w.hists)

	if w.name == "ingest" {
		if err := c.restart(e, 0); err != nil {
			return err
		}
		ok, detail := totalsMatch(ctx, c, w, st, want)
		res.check("totals_after_restart", ok, detail)
	}
	return nil
}

// totalsMatch compares every histogram's exact served total with want.
func totalsMatch(ctx context.Context, c *cluster, w *workload, st *state, want func(s, h int) float64) (bool, string) {
	for s, cl := range c.clients {
		for h := 0; h < w.hists; h++ {
			if st.truth[h].lost {
				return false, fmt.Sprintf("%s: an insert failed, its fate is unknown", histName(h))
			}
			total, err := servedTotal(ctx, cl, histName(h))
			if err != nil {
				return false, err.Error()
			}
			if total != want(s, h) {
				return false, fmt.Sprintf("site %d %s: total %v, acked %v", s, histName(h), total, want(s, h))
			}
		}
	}
	return true, ""
}

// servedTotal is the exact point count the server holds for name: the
// sum of its shards' running totals, read from its envelope. (The
// merged view's total is a float sum over buckets and may differ from
// it in the last bits.)
func servedTotal(ctx context.Context, cl *client.Client, name string) (float64, error) {
	env, err := cl.Envelope(ctx, name)
	if err != nil {
		return 0, err
	}
	h, err := dynahist.Restore(env.Data)
	if err != nil {
		return 0, err
	}
	sh, ok := h.(*dynahist.Sharded)
	if !ok {
		return 0, fmt.Errorf("%s: envelope holds a %T, not a sharded histogram", name, h)
	}
	var sum float64
	for _, t := range sh.ShardTotals() {
		sum += t
	}
	return sum, nil
}

// replayMirror rebuilds every histogram in a fresh registry from the
// batches the server acked, in the order it acked them.
func replayMirror(st *state) (map[string]*dynahist.Sharded, error) {
	w := st.in.w
	fresh := newState(st.in)
	reg := server.NewRegistry()
	out := make(map[string]*dynahist.Sharded, w.hists)
	for h := 0; h < w.hists; h++ {
		h2, err := createMirrorHist(reg, histName(h))
		if err != nil {
			return nil, err
		}
		for _, b := range fresh.preloadBatches(h, 0) {
			if err := h2.InsertBatch(b); err != nil {
				return nil, err
			}
		}
		for k := 0; k < st.truth[h].acked; k++ {
			if err := h2.InsertBatch(fresh.values[h].next(batchValues)); err != nil {
				return nil, err
			}
		}
		out[histName(h)] = h2
	}
	return out, nil
}

func createMirrorHist(reg *server.Registry, name string) (*dynahist.Sharded, error) {
	if _, err := reg.Create(wire.CreateRequest{Name: name, Family: server.FamilyDADO, MemBytes: 1024, Shards: 4}); err != nil {
		return nil, err
	}
	return reg.Histogram(name)
}

// matchMirror checks that each named histogram's served envelope,
// restored and described with probeSpec, is bit-identical to the
// mirror's.
func matchMirror(ctx context.Context, cl *client.Client, names []string, mirror func(name string) *dynahist.Sharded) (bool, string) {
	for _, name := range names {
		env, err := cl.Envelope(ctx, name)
		if err != nil {
			return false, err.Error()
		}
		blob, err := mirror(name).Snapshot()
		if err != nil {
			return false, err.Error()
		}
		a, err := describeBlob(env.Data)
		if err != nil {
			return false, err.Error()
		}
		b, err := describeBlob(blob)
		if err != nil {
			return false, err.Error()
		}
		if !sameBits(a, b) {
			return false, fmt.Sprintf("%s: served and mirrored summaries differ", name)
		}
	}
	return true, ""
}

func describeBlob(blob []byte) ([]float64, error) {
	h, err := dynahist.Restore(blob)
	if err != nil {
		return nil, err
	}
	s, err := dynahist.Describe(h, probeSpec)
	if err != nil {
		return nil, err
	}
	out := []float64{s.Total}
	out = append(out, s.Quantiles...)
	out = append(out, s.CDF...)
	out = append(out, s.PDF...)
	out = append(out, s.Ranges...)
	for _, b := range s.Buckets {
		out = append(out, b.Left, b.Right)
		out = append(out, b.Counters...)
	}
	return out, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ksOf is the KS statistic (paper §6.2) between a served bucket list
// and the exact distribution.
func ksOf(bs []client.Bucket, tr *dist.Tracker) (float64, error) {
	db := make([]dynahist.Bucket, len(bs))
	for i, b := range bs {
		db[i] = dynahist.Bucket{Left: b.Left, Right: b.Right, Counters: b.Counters}
	}
	h, err := dynahist.NewStaticFromBuckets(db)
	if err != nil {
		return 0, err
	}
	return metric.KS(h.CDF, tr)
}
