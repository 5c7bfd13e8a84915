package dynahist_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"dynahist"
)

// estimatorMatrix builds one Estimator per public kind, fed the same
// value stream (plus a delete pass), for tests quantifying over the
// whole read plane.
func estimatorMatrix(t *testing.T, values []float64) map[string]dynahist.Estimator {
	t.Helper()
	intValues := make([]int, len(values))
	for i, v := range values {
		intValues[i] = int(v)
	}
	build := func(kind dynahist.Kind, opts ...dynahist.Option) dynahist.Estimator {
		h, err := dynahist.New(kind, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return h.(dynahist.Estimator)
	}
	sharded, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	}, dynahist.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	eddado, err := dynahist.NewEDDado(dynahist.AbsDeviation, 32)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]dynahist.Estimator{
		"dado":        build(dynahist.KindDADO, dynahist.WithMemory(1024)),
		"dvo":         build(dynahist.KindDVO, dynahist.WithMemory(1024)),
		"dc":          build(dynahist.KindDC, dynahist.WithMemory(1024)),
		"ac":          build(dynahist.KindAC, dynahist.WithMemory(1024), dynahist.WithSeed(7)),
		"static-ed":   build(dynahist.KindEquiDepth, dynahist.WithValues(intValues), dynahist.WithBuckets(32)),
		"static-ssbm": build(dynahist.KindSSBM, dynahist.WithValues(intValues), dynahist.WithBuckets(32)),
		"concurrent":  dynahist.NewConcurrent(build(dynahist.KindDADO, dynahist.WithMemory(1024))),
		"sharded":     sharded,
		"eddado":      eddado,
	}
	for name, e := range m {
		if name == "static-ed" || name == "static-ssbm" {
			continue // built from the complete data already
		}
		if err := dynahist.InsertAll(e, values); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A delete pass so the views see post-delete state too.
		if err := dynahist.DeleteAll(e, values[:len(values)/10]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return m
}

// TestViewMatchesDirect is the read-plane equivalence property: for
// every public kind, every statistic answered off a pinned View
// matches the type's own direct methods (which since the redesign run
// through the same one implementation, so agreement is essentially
// exact — the loose tolerance only covers AC's live-count vs
// bucket-mass normalisation).
func TestViewMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	values := make([]float64, 30000)
	for i := range values {
		values[i] = float64(rng.Intn(5001))
	}
	for name, e := range estimatorMatrix(t, values) {
		v, err := e.View()
		if err != nil {
			t.Fatalf("%s: View: %v", name, err)
		}
		relTol := func(a, b float64) bool {
			return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
		}
		if !relTol(v.Total(), e.Total()) {
			t.Errorf("%s: view Total %v vs direct %v", name, v.Total(), e.Total())
		}
		vb, eb := v.Buckets(), e.Buckets()
		if len(vb) != len(eb) {
			t.Fatalf("%s: view %d buckets vs direct %d", name, len(vb), len(eb))
		}
		for i := range vb {
			if vb[i].Left != eb[i].Left || vb[i].Right != eb[i].Right || !relTol(vb[i].Count(), eb[i].Count()) {
				t.Fatalf("%s: bucket %d differs: %+v vs %+v", name, i, vb[i], eb[i])
			}
		}
		for probe := 0; probe < 60; probe++ {
			x := -100 + rng.Float64()*5300
			if got, want := v.CDF(x), e.CDF(x); !relTol(got, want) {
				t.Errorf("%s: view CDF(%v) = %v, direct = %v", name, x, got, want)
			}
			lo := rng.Float64() * 5000
			hi := lo + rng.Float64()*1000
			if got, want := v.EstimateRange(lo, hi), e.EstimateRange(lo, hi); !relTol(got, want) {
				t.Errorf("%s: view EstimateRange(%v,%v) = %v, direct = %v", name, lo, hi, got, want)
			}
			q := rng.Float64()
			if q == 0 {
				q = 0.5
			}
			gotQ, err1 := v.Quantile(q)
			wantQ, err2 := e.Quantile(q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: Quantile(%v) err mismatch: %v vs %v", name, q, err1, err2)
			}
			if err1 == nil && !relTol(gotQ, wantQ) {
				t.Errorf("%s: view Quantile(%v) = %v, direct = %v", name, q, gotQ, wantQ)
			}
			// The linear-walk reference over a fresh bucket copy must
			// agree with the view up to quantile tolerance.
			refQ, err3 := linearQuantile(e, q)
			if err3 == nil && err1 == nil && math.Abs(refQ-gotQ) > 1e-6*(1+math.Abs(gotQ)) {
				t.Errorf("%s: reference Quantile(%v) = %v, view = %v", name, q, refQ, gotQ)
			}
		}
		// Describe answers the same batch the singles answered.
		sum, err := v.Describe(dynahist.QuerySpec{
			Quantiles: []float64{0.25, 0.5, 0.75},
			CDF:       []float64{1000, 2500},
			PDF:       []float64{2500},
			Ranges:    []dynahist.Range{{Lo: 1000, Hi: 2000}},
			Buckets:   true,
		})
		if err != nil {
			t.Fatalf("%s: Describe: %v", name, err)
		}
		if sum.Total != v.Total() || len(sum.Quantiles) != 3 || len(sum.CDF) != 2 ||
			len(sum.PDF) != 1 || len(sum.Ranges) != 1 || len(sum.Buckets) != v.NumBuckets() {
			t.Errorf("%s: Describe summary shape wrong: %+v", name, sum)
		}
		if sum.CDF[0] != v.CDF(1000) || sum.Ranges[0] != v.EstimateRange(1000, 2000) {
			t.Errorf("%s: Describe answers diverge from view singles", name)
		}
	}
}

// TestViewPinnedIsImmutable checks the pin semantics: statistics on a
// pinned view must not move when the source histogram is written
// afterwards, for every kind.
func TestViewPinnedIsImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	values := make([]float64, 10000)
	for i := range values {
		values[i] = float64(rng.Intn(2001))
	}
	for name, e := range estimatorMatrix(t, values) {
		v, err := e.View()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total := v.Total()
		cdf := v.CDF(700)
		q90, _ := v.Quantile(0.9)
		for i := 0; i < 500; i++ {
			if err := e.Insert(float64(rng.Intn(2001))); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if v.Total() != total || v.CDF(700) != cdf {
			t.Errorf("%s: pinned view moved under writes", name)
		}
		if got, _ := v.Quantile(0.9); got != q90 {
			t.Errorf("%s: pinned quantile moved under writes", name)
		}
		// A fresh pin sees the writes.
		v2, err := e.View()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v2.Total() <= total {
			t.Errorf("%s: fresh view total %v not above pinned %v", name, v2.Total(), total)
		}
	}
}

// TestStaticViewCopyOnWrite checks the copy-on-write pin of a Static:
// the view shares the histogram's bucket list until the next write, so
// neither an Insert nor a Delete after the pin may reach the view, and
// the histogram's list is its own — editing the caller's []Bucket after
// NewStaticFromBuckets changes nothing.
func TestStaticViewCopyOnWrite(t *testing.T) {
	in := []dynahist.Bucket{
		{Left: 0, Right: 10, Counters: []float64{4, 6}},
		{Left: 10, Right: 20, Counters: []float64{5, 5}},
		{Left: 30, Right: 40, Counters: []float64{2, 8}},
	}
	h, err := dynahist.NewStaticFromBuckets(in)
	if err != nil {
		t.Fatal(err)
	}
	want := h.Buckets()
	in[0].Counters[0], in[1].Left, in[2] = 1000, 9, dynahist.Bucket{Left: 50, Right: 60, Counters: []float64{1, 1}}
	if got := h.Buckets(); !reflect.DeepEqual(got, want) || h.Total() != 30 {
		t.Fatalf("editing the caller's buckets reached the histogram: %+v, total %v", got, h.Total())
	}

	for _, write := range []struct {
		name string
		do   func() error
	}{
		{"delete", func() error { return h.Delete(5) }},
		{"insert", func() error { return h.Insert(35) }},
		{"delete-spill", func() error { return h.Delete(25) }},
	} {
		v, err := h.View()
		if err != nil {
			t.Fatal(err)
		}
		pinned, total, cdf := v.Buckets(), v.Total(), v.CDF(15)
		if err := write.do(); err != nil {
			t.Fatalf("%s: %v", write.name, err)
		}
		if !reflect.DeepEqual(v.Buckets(), pinned) || v.Total() != total || v.CDF(15) != cdf {
			t.Errorf("%s after the pin moved the view: %+v, total %v", write.name, v.Buckets(), v.Total())
		}
		fresh, err := h.View()
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(fresh.Buckets(), pinned) {
			t.Errorf("%s: a fresh pin does not see the write", write.name)
		}
		if !reflect.DeepEqual(fresh.Buckets(), h.Buckets()) || fresh.Total() != h.Total() {
			t.Errorf("%s: fresh pin %+v differs from the histogram %+v", write.name, fresh.Buckets(), h.Buckets())
		}
	}
}

// TestPinnedViewStableUnderConcurrentWrites is the -race stability
// test of the redesign: a View pinned off a Sharded (and a Concurrent)
// histogram must stay readable and answer identically while 8 writers
// hammer the source.
func TestPinnedViewStableUnderConcurrentWrites(t *testing.T) {
	sharded, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	}, dynahist.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	conc := dynahist.NewConcurrent(mustNewKind(t, dynahist.KindDADO, dynahist.WithMemory(1024)))
	for name, e := range map[string]dynahist.Estimator{"sharded": sharded, "concurrent": conc} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			seedVals := make([]float64, 20000)
			for i := range seedVals {
				seedVals[i] = float64(rng.Intn(5001))
			}
			if err := dynahist.InsertAll(e, seedVals); err != nil {
				t.Fatal(err)
			}
			v, err := e.View()
			if err != nil {
				t.Fatal(err)
			}
			wantTotal := v.Total()
			wantCDF := v.CDF(2500)
			wantQ, err := v.Quantile(0.5)
			if err != nil {
				t.Fatal(err)
			}

			const writers = 8
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := e.Insert(float64(rng.Intn(5001))); err != nil {
							t.Error(err)
							return
						}
					}
				}(int64(w))
			}
			// Readers hammer the pinned view while the writers run; every
			// answer must equal the pin-time answer.
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					deadline := time.Now().Add(100 * time.Millisecond)
					for time.Now().Before(deadline) {
						if got := v.Total(); got != wantTotal {
							t.Errorf("pinned Total moved: %v != %v", got, wantTotal)
							return
						}
						if got := v.CDF(2500); got != wantCDF {
							t.Errorf("pinned CDF moved: %v != %v", got, wantCDF)
							return
						}
						if got, err := v.Quantile(0.5); err != nil || got != wantQ {
							t.Errorf("pinned Quantile moved: %v, %v != %v", got, err, wantQ)
							return
						}
						_ = v.Buckets()
					}
				}()
			}
			time.Sleep(120 * time.Millisecond)
			close(stop)
			wg.Wait()
		})
	}
}

// linearQuantile is the copy-per-call reference the pinned view is
// checked and timed against: it clones h's bucket list and walks it
// linearly for the smallest x with CDF(x) ≥ q, interpolating within a
// sub-bucket.
func linearQuantile(h dynahist.Histogram, q float64) (float64, error) {
	if !(q > 0 && q <= 1) {
		return 0, fmt.Errorf("quantile %v outside (0,1]", q)
	}
	bs := h.Buckets()
	total := 0.0
	for _, b := range bs {
		total += b.Count()
	}
	if total <= 0 {
		return 0, dynahist.ErrEmptyHistogram
	}
	target, eps := q*total, total*1e-12
	acc := 0.0
	for _, b := range bs {
		if c := b.Count(); acc+c < target-eps {
			acc += c
			continue
		}
		subW := b.Width() / float64(len(b.Counters))
		for i, sc := range b.Counters {
			if acc+sc < target-eps {
				acc += sc
				continue
			}
			lo := b.Left + float64(i)*subW
			if sc <= 0 {
				return lo, nil
			}
			return lo + min(max((target-acc)/sc, 0), 1)*subW, nil
		}
		return b.Right, nil
	}
	return bs[len(bs)-1].Right, nil
}

func mustNewKind(t *testing.T, kind dynahist.Kind, opts ...dynahist.Option) dynahist.Histogram {
	t.Helper()
	h, err := dynahist.New(kind, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestShardedViewReturnsMergeError checks that a Sharded whose member
// produces an unmergeable bucket list reports the failure from View()
// itself, while the fail-soft reads keep answering.
func TestShardedViewReturnsMergeError(t *testing.T) {
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return &overlappingHistogram{}, nil
	}, dynahist.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(); err == nil {
		t.Fatal("View over an unmergeable member: want error")
	}
	if _, err := s.Quantile(0.5); err == nil {
		t.Fatal("Quantile over an unmergeable member: want error")
	}
}

// overlappingHistogram is a user-supplied Histogram whose bucket list
// violates the non-overlap invariant, to force a merge failure.
type overlappingHistogram struct{ n float64 }

func (o *overlappingHistogram) Insert(v float64) error               { o.n++; return nil }
func (o *overlappingHistogram) Delete(v float64) error               { o.n--; return nil }
func (o *overlappingHistogram) Total() float64                       { return o.n }
func (o *overlappingHistogram) CDF(x float64) float64                { return 0 }
func (o *overlappingHistogram) EstimateRange(lo, hi float64) float64 { return 0 }
func (o *overlappingHistogram) Buckets() []dynahist.Bucket {
	return []dynahist.Bucket{
		{Left: 0, Right: 10, Counters: []float64{o.n}},
		{Left: 5, Right: 15, Counters: []float64{1}},
	}
}

// TestPinnedViewSpeedupGate is the acceptance gate for the read-plane
// redesign: 10 quantiles answered off one pinned Sharded view must be
// at least 3× faster than 10 direct per-call queries through the
// pre-redesign path (linearQuantile, which clones the merged bucket
// list and walks it linearly on every call) at ≥64 merged buckets.
// The real gap is well above 10×; interleaved best-of-3 keeps a noisy
// scheduler from inverting the comparison.
func TestPinnedViewSpeedupGate(t *testing.T) {
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	}, dynahist.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = float64(rng.Intn(5001))
	}
	if err := s.InsertBatch(vals); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Buckets()); got < 64 {
		t.Fatalf("merged view has %d buckets, want ≥ 64 for the gate", got)
	}
	qs := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9, 0.99}

	const rounds = 300
	direct := func() time.Duration {
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, q := range qs {
				if _, err := linearQuantile(s, q); err != nil {
					t.Fatal(err)
				}
			}
		}
		return time.Since(start)
	}
	pinned := func() time.Duration {
		start := time.Now()
		for r := 0; r < rounds; r++ {
			v, err := s.View()
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				if _, err := v.Quantile(q); err != nil {
					t.Fatal(err)
				}
			}
		}
		return time.Since(start)
	}

	directBest := time.Duration(math.MaxInt64)
	pinnedBest := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		if d := direct(); d < directBest {
			directBest = d
		}
		if d := pinned(); d < pinnedBest {
			pinnedBest = d
		}
	}
	speedup := float64(directBest) / float64(pinnedBest)
	t.Logf("10 quantiles × %d rounds on %d merged buckets: direct %v, pinned view %v, speedup %.1fx",
		rounds, len(s.Buckets()), directBest, pinnedBest, speedup)
	if speedup < 3 {
		t.Errorf("pinned view %.1fx direct per-call quantiles, want ≥ 3x", speedup)
	}
}
