package main

// Deterministic inputs. Every value batch, query shape, histogram choice
// and feedback range derives from the -seed flag, so one seed always
// produces the same op streams; the servers receive only these inputs.

import (
	"fmt"
	"math/rand"
	"sync"

	"dynahist/client"
	"dynahist/internal/dist"
	"dynahist/internal/distgen"
)

const (
	// domain is the value domain of the paper's reference data, [0, 5000].
	domain = 5000
	// batchValues is the size of every timed ingest batch.
	batchValues = 512
	// preloadBatch is the batch size of set-up ingest: larger batches
	// keep set-up short, and set-up is not what the workloads time.
	preloadBatch = 8192
	// pollEvery: on ingest, every pollEvery-th batch of a client waits
	// until the server has folded it in (read-your-writes).
	pollEvery = 8
	// numShapes is the number of distinct query shapes. The server's
	// query cache keeps 256 per histogram per epoch, so the hot shapes
	// fit and the Zipf tail does not.
	numShapes = 1024
	shapeSkew = 1.1
	// feedbackEvery: one in feedbackEvery mixed reads is feedback.
	feedbackEvery = 20
	// fanoutMaxBuckets is the bucket budget of the global union.
	fanoutMaxBuckets = 256
)

type opKind int

const (
	opInsert opKind = iota
	opQuery
	opFeedback
	opDescribe
)

// op is one client request of a workload's op stream.
type op struct {
	kind   opKind
	hist   int
	values []float64 // opInsert
	poll   bool      // opInsert: wait until the batch is readable
	shape  int       // opQuery, opDescribe
	lo, hi float64   // opFeedback; the observed count is read at send time
}

// workload is one traffic mix.
type workload struct {
	name     string
	sites    int    // histserved processes
	hists    int    // histograms, each present on every site
	preload  int    // values per histogram per site loaded during set-up
	feedback int    // feedback records per histogram sent during set-up
	openLoop bool   // streams follow a fixed schedule instead of waiting
	rate     int    // open loop: ops per second per stream
	primary  opKind // the op whose latency p50_ms and p99_ms report
}

var workloads = []workload{
	{name: "ingest", sites: 1, hists: 8, primary: opInsert},
	{name: "query", sites: 1, hists: 8, preload: 100_000, feedback: 32, primary: opQuery},
	{name: "mixed", sites: 1, hists: 16, preload: 100_000, openLoop: true, rate: 100, primary: opQuery},
	{name: "fanout", sites: 2, hists: 4, preload: 100_000, primary: opDescribe},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// probeHist is the histogram of the traced run's once-per-second probe
// ops, which reach every layer whatever the workload.
const probeHist = -1

func histName(h int) string {
	if h == probeHist {
		return "probe"
	}
	return fmt.Sprintf("h%02d", h)
}

// inputs are the seed-derived data of one run, generated before any
// set-up is timed.
type inputs struct {
	w    *workload
	seed int64
	// base[h] is histogram h's data set: the paper's §6.1 reference data
	// (2000 Zipf clusters over [0, 5000]). It is fixed per histogram and
	// the seed only orders it, so runs on different seeds differ in
	// arrival order, query mix and feedback, not in the distribution —
	// which keeps est_ks and the merge costs comparable across seeds.
	// On fanout it holds both sites' halves.
	base   [][]int
	shapes []client.QuerySpec
}

func newInputs(w *workload, seed int64) (*inputs, error) {
	in := &inputs{w: w, seed: seed, base: make([][]int, w.hists), shapes: queryShapes(seed)}
	for h := range in.base {
		cfg := distgen.Reference(int64(h + 1))
		if w.sites > 1 {
			cfg.Points = w.sites * w.preload
		}
		vals, err := distgen.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generating data for %s: %w", histName(h), err)
		}
		in.base[h] = vals
	}
	return in, nil
}

func histSeed(seed int64, h int) int64 { return seed*1000 + int64(h) }

// queryShapes returns the seeded query shapes: quantiles .5/.9/.99,
// four CDF points and one range each.
func queryShapes(seed int64) []client.QuerySpec {
	r := rand.New(rand.NewSource(seed))
	shapes := make([]client.QuerySpec, numShapes)
	for i := range shapes {
		cdf := make([]float64, 4)
		for j := range cdf {
			cdf[j] = float64(r.Intn(domain + 1))
		}
		lo := r.Intn(domain)
		hi := lo + 1 + r.Intn(domain-lo)
		shapes[i] = client.QuerySpec{
			Quantiles: []float64{0.5, 0.9, 0.99},
			CDF:       cdf,
			Ranges:    []client.Range{{Lo: float64(lo), Hi: float64(hi)}},
		}
	}
	return shapes
}

func feedbackRange(r *rand.Rand) (lo, hi float64) {
	l := r.Intn(domain - 50)
	return float64(l), float64(min(domain, l+50+r.Intn(950)))
}

// valueStream is one histogram's ingest values: its reference data
// set, reshuffled each time it is used up.
type valueStream struct {
	base  []int
	seed  int64
	cycle int64
	cur   []int
	pos   int
}

func newValueStream(base []int, seed int64) *valueStream {
	return &valueStream{base: base, seed: seed, cur: distgen.Shuffled(base, seed)}
}

func (s *valueStream) next(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if s.pos == len(s.cur) {
			s.cycle++
			s.cur, s.pos = distgen.Shuffled(s.base, s.seed+s.cycle), 0
		}
		out[i] = float64(s.cur[s.pos])
		s.pos++
	}
	return out
}

// truth is the exact state of one histogram as acknowledged by the
// server: an internal/dist tracker of every acked value.
type truth struct {
	mu sync.Mutex
	t  *dist.Tracker
	// acked counts the insert batches acknowledged after set-up, which
	// are a prefix of the histogram's value stream because each
	// histogram has exactly one writer.
	acked int
	// lost is set when an insert failed: the server may or may not hold
	// that batch, so exact checks on this histogram cannot hold.
	lost bool
}

func (t *truth) add(vs []float64) {
	t.mu.Lock()
	for _, v := range vs {
		_ = t.t.Insert(int(v)) // generated values lie in the tracker's domain
	}
	t.mu.Unlock()
}

func (t *truth) rangeCount(lo, hi float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.t.RangeCount(int(lo), int(hi)))
}

func (t *truth) total() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.t.Total())
}

// state is the mutable per-set-up generator state: value streams and
// trackers, fresh for each set-up so every set-up sends the same data.
type state struct {
	in     *inputs
	values []*valueStream
	truth  []*truth
	// The probe histogram's stream and tracker (traced runs only).
	probeValues *valueStream
	probeTruth  *truth
}

func newState(in *inputs) *state {
	s := &state{in: in, values: make([]*valueStream, len(in.base)), truth: make([]*truth, len(in.base))}
	for h, base := range in.base {
		s.values[h] = newValueStream(base, histSeed(in.seed, h))
		s.truth[h] = &truth{t: dist.New(domain)}
	}
	s.probeValues = newValueStream(in.base[0], histSeed(in.seed, 999))
	s.probeTruth = &truth{t: dist.New(domain)}
	return s
}

func (s *state) truthOf(h int) *truth {
	if h == probeHist {
		return s.probeTruth
	}
	return s.truth[h]
}

// preloadBatches returns site's set-up batches of histogram h: its
// share of the data set in a fixed order. Set-up state is therefore the
// same on every seed; the seed drives only the timed phase's op streams
// (and the set-up feedback), so a run's numbers vary with the workload,
// not with which data set a seed happened to draw.
func (s *state) preloadBatches(h, site int) [][]float64 {
	w := s.in.w
	part := distgen.Shuffled(s.in.base[h], int64(h+1))[site*w.preload : (site+1)*w.preload]
	vals := make([]float64, len(part))
	for i, v := range part {
		vals[i] = float64(v)
	}
	var out [][]float64
	for len(vals) > 0 {
		n := min(preloadBatch, len(vals))
		out = append(out, vals[:n])
		vals = vals[n:]
	}
	return out
}

// streams returns the workload's op streams, one per client (closed
// loop) or per scheduled sender (open loop).
func (s *state) streams() []func() op {
	w, seed := s.in.w, s.in.seed
	zipf := func(r *rand.Rand) *rand.Zipf { return rand.NewZipf(r, shapeSkew, 1, numShapes-1) }
	switch w.name {
	case "ingest":
		// Two clients, each the only writer of half the histograms.
		per := w.hists / 2
		out := make([]func() op, 2)
		for c := range out {
			k := 0
			out[c] = func() op {
				h := c*per + k%per
				o := op{kind: opInsert, hist: h, values: s.values[h].next(batchValues), poll: k%pollEvery == pollEvery-1}
				k++
				return o
			}
		}
		return out
	case "query":
		out := make([]func() op, 2)
		for c := range out {
			r := rand.New(rand.NewSource(seed*7 + int64(c)))
			z := zipf(r)
			out[c] = func() op { return op{kind: opQuery, hist: r.Intn(w.hists), shape: int(z.Uint64())} }
		}
		return out
	case "mixed":
		k := 0
		writer := func() op {
			h := k % w.hists
			k++
			return op{kind: opInsert, hist: h, values: s.values[h].next(batchValues)}
		}
		r := rand.New(rand.NewSource(seed * 11))
		z := zipf(r)
		j := 0
		reader := func() op {
			j++
			if j%feedbackEvery == 0 {
				lo, hi := feedbackRange(r)
				return op{kind: opFeedback, hist: r.Intn(w.hists), lo: lo, hi: hi}
			}
			return op{kind: opQuery, hist: r.Intn(w.hists), shape: int(z.Uint64())}
		}
		return []func() op{writer, reader}
	default: // fanout
		r := rand.New(rand.NewSource(seed * 13))
		z := zipf(r)
		return []func() op{func() op { return op{kind: opDescribe, hist: r.Intn(w.hists), shape: int(z.Uint64())} }}
	}
}

// setupFeedback returns the feedback ranges sent to histogram h during
// set-up.
func (s *state) setupFeedback(h int) [][2]float64 {
	r := rand.New(rand.NewSource(histSeed(s.in.seed, h) * 3))
	out := make([][2]float64, s.in.w.feedback)
	for i := range out {
		out[i][0], out[i][1] = feedbackRange(r)
	}
	return out
}
