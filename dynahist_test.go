package dynahist_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"dynahist"
)

func insertStream(t *testing.T, h dynahist.Histogram, values []int) {
	t.Helper()
	for _, v := range values {
		if err := h.Insert(float64(v)); err != nil {
			t.Fatal(err)
		}
	}
}

func randomValues(seed int64, n, domain int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(domain + 1)
	}
	return out
}

func TestPublicConstructors(t *testing.T) {
	cases := []struct {
		name  string
		build func() (dynahist.Histogram, error)
	}{
		{"DADO", func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDADO, dynahist.WithBuckets(16)) }},
		{"DADOMemory", func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024)) }},
		{"DVO", func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDVO, dynahist.WithBuckets(16)) }},
		{"DVOMemory", func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDVO, dynahist.WithMemory(1024)) }},
		{"Dynamic-K3", func() (dynahist.Histogram, error) {
			return dynahist.New(dynahist.KindDADO, dynahist.WithBuckets(16), dynahist.WithSubBuckets(3))
		}},
		{"DC", func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDC, dynahist.WithBuckets(16)) }},
		{"DCMemory", func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDC, dynahist.WithMemory(1024)) }},
		{"AC", func() (dynahist.Histogram, error) {
			return dynahist.New(dynahist.KindAC, dynahist.WithMemory(1024), dynahist.WithDiskFactor(20), dynahist.WithSeed(1))
		}},
		{"ACBuckets", func() (dynahist.Histogram, error) {
			return dynahist.New(dynahist.KindAC, dynahist.WithBuckets(16), dynahist.WithSampleCapacity(500), dynahist.WithSeed(1))
		}},
	}
	values := randomValues(1, 5000, 400)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			insertStream(t, h, values)
			if h.Total() != 5000 {
				t.Fatalf("Total = %v, want 5000", h.Total())
			}
			if got := h.EstimateRange(0, 400); math.Abs(got-5000) > 1 {
				t.Fatalf("whole-range estimate %v, want ≈5000", got)
			}
			prev := 0.0
			for x := -1.0; x <= 402; x += 1 {
				cdf := h.CDF(x)
				if cdf < prev-1e-9 || cdf < 0 || cdf > 1+1e-9 {
					t.Fatalf("CDF not monotone at %v", x)
				}
				prev = cdf
			}
			if len(h.Buckets()) == 0 {
				t.Fatal("no buckets")
			}
			ks, err := dynahist.KS(h, values)
			if err != nil {
				t.Fatal(err)
			}
			if ks > 0.2 {
				t.Fatalf("KS = %v, implausibly bad", ks)
			}
		})
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := dynahist.New(dynahist.KindDADO, dynahist.WithBuckets(1)); err == nil {
		t.Error("DADO with 1 bucket: want error")
	}
	if _, err := dynahist.New(dynahist.KindDC, dynahist.WithMemory(2)); err == nil {
		t.Error("DC with 2 bytes: want error")
	}
	if _, err := dynahist.New(dynahist.KindAC, dynahist.WithMemory(1024), dynahist.WithDiskFactor(-1)); err == nil {
		t.Error("AC disk factor -1: want error")
	}
	if _, err := dynahist.New(dynahist.KindDADO, dynahist.WithBuckets(8), dynahist.WithSubBuckets(1)); err == nil {
		t.Error("subBuckets 1: want error")
	}
	if _, err := dynahist.New(dynahist.Kind(42), dynahist.WithValues([]int{1}), dynahist.WithBuckets(4)); err == nil {
		t.Error("unknown static kind: want error")
	}
	if _, err := dynahist.New(dynahist.KindEquiDepth, dynahist.WithValues(nil), dynahist.WithBuckets(4)); err == nil {
		t.Error("no values: want error")
	}
	if _, err := dynahist.New(dynahist.KindEquiDepth, dynahist.WithValues([]int{-1}), dynahist.WithBuckets(4)); err == nil {
		t.Error("negative value: want error")
	}
}

func TestBucketAccessors(t *testing.T) {
	b := dynahist.Bucket{Left: 2, Right: 8, Counters: []float64{3, 5}}
	if b.Count() != 8 || b.Width() != 6 {
		t.Errorf("Count/Width = %v/%v", b.Count(), b.Width())
	}
}

func TestBucketsForMemory(t *testing.T) {
	n, err := dynahist.BucketsForMemory(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 85 {
		t.Errorf("1KB with 2 counters = %d, want 85", n)
	}
}

func TestStaticKinds(t *testing.T) {
	values := randomValues(2, 4000, 300)
	kinds := []dynahist.Kind{
		dynahist.KindEquiWidth, dynahist.KindEquiDepth, dynahist.KindCompressed,
		dynahist.KindVOptimal, dynahist.KindSADO, dynahist.KindSSBM,
	}
	for _, kind := range kinds {
		h := mustNewKind(t, kind, dynahist.WithValues(values), dynahist.WithBuckets(20)).(*dynahist.Static)
		if h.Total() != 4000 {
			t.Fatalf("%v: Total %v", kind, h.Total())
		}
		if h.NumBuckets() > 20 {
			t.Fatalf("%v: over budget", kind)
		}
		ks, err := dynahist.KS(h, values)
		if err != nil {
			t.Fatal(err)
		}
		if ks > 0.25 {
			t.Fatalf("%v: KS %v implausibly bad", kind, ks)
		}
	}
	if _, err := dynahist.New(dynahist.KindSSBM, dynahist.WithValues(values), dynahist.WithMemory(256)); err != nil {
		t.Fatal(err)
	}
}

func TestDADOBeatsStaticBaselineClaim(t *testing.T) {
	// The paper's headline: DADO (dynamic, one pass, bounded memory)
	// comes close to the best static construction on skewed data.
	values := randomValues(3, 30000, 2000)
	dado := mustNewKind(t, dynahist.KindDADO, dynahist.WithMemory(1024))
	insertStream(t, dado, values)
	ksDADO, err := dynahist.KS(dado, values)
	if err != nil {
		t.Fatal(err)
	}
	if ksDADO > 0.05 {
		t.Errorf("DADO KS %v too large on uniform-ish data", ksDADO)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	values := randomValues(4, 3000, 500)
	h := mustNewKind(t, dynahist.KindDADO, dynahist.WithBuckets(24))
	insertStream(t, h, values)
	data, err := dynahist.MarshalBuckets(h.Buckets())
	if err != nil {
		t.Fatal(err)
	}
	buckets, err := dynahist.UnmarshalBuckets(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := dynahist.NewStaticFromBuckets(buckets)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= 501; x += 10 {
		if math.Abs(restored.CDF(x)-h.CDF(x)) > 1e-9 {
			t.Fatalf("restored CDF differs at %v", x)
		}
	}
	if _, err := dynahist.UnmarshalBuckets(data[:5]); err == nil {
		t.Error("truncated data: want error")
	}
}

func TestSuperposeAndReduce(t *testing.T) {
	h1 := mustNewKind(t, dynahist.KindDADO, dynahist.WithBuckets(16))
	h2 := mustNewKind(t, dynahist.KindDADO, dynahist.WithBuckets(16))
	insertStream(t, h1, randomValues(5, 2000, 300))
	insertStream(t, h2, randomValues(6, 3000, 600))
	u, err := dynahist.Superpose(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, b := range u {
		total += b.Count()
	}
	if math.Abs(total-5000) > 1e-6 {
		t.Fatalf("union mass %v, want 5000", total)
	}
	r, err := dynahist.Reduce(u, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) > 16 {
		t.Fatalf("reduced to %d buckets", len(r))
	}
	g, err := dynahist.NewStaticFromBuckets(r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Total()-5000) > 1e-6 {
		t.Fatalf("global total %v", g.Total())
	}
}

// TestStaticFromReducedUnionDeletesEveryPoint: reducing a two-site
// union leaves fractional counts, so the last points of a static built
// from it sit in buckets that each hold less than one. Every inserted
// point must still delete.
func TestStaticFromReducedUnionDeletesEveryPoint(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sites := []dynahist.Histogram{
			mustNewKind(t, dynahist.KindDADO, dynahist.WithBuckets(8)),
			mustNewKind(t, dynahist.KindDADO, dynahist.WithBuckets(8)),
		}
		values := make([]float64, 100)
		for i := range values {
			values[i] = float64(rng.Intn(200))
			if err := sites[i%2].Insert(values[i]); err != nil {
				t.Fatal(err)
			}
		}
		u, err := dynahist.Superpose(sites...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := dynahist.Reduce(u, 8)
		if err != nil {
			t.Fatal(err)
		}
		g, err := dynahist.NewStaticFromBuckets(r)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range values {
			if err := g.Delete(v); err != nil {
				t.Fatalf("seed %d: delete %d of %v (Total %v): %v", seed, i+1, v, g.Total(), err)
			}
		}
		if math.Abs(g.Total()) > 1e-6 {
			t.Fatalf("seed %d: Total %v after deleting every point", seed, g.Total())
		}
	}
}

func TestConcurrentWrapper(t *testing.T) {
	h := dynahist.NewConcurrent(mustNewKind(t, dynahist.KindDADO, dynahist.WithBuckets(32)))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := range 4 {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for range 2000 {
				if err := h.Insert(float64(rng.Intn(1000))); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2000 {
				_ = h.CDF(500)
				_ = h.EstimateRange(100, 300)
				_ = h.Total()
				_ = h.Buckets()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if h.Total() != 8000 {
		t.Fatalf("Total = %v, want 8000", h.Total())
	}
}

func TestDiagnosticsExposed(t *testing.T) {
	dc := mustNewKind(t, dynahist.KindDC, dynahist.WithBuckets(8)).(*dynahist.DC)
	for v := range 8 {
		if err := dc.Insert(float64(v * 5)); err != nil {
			t.Fatal(err)
		}
	}
	for range 3000 {
		if err := dc.Insert(17); err != nil {
			t.Fatal(err)
		}
	}
	if dc.Repartitions() == 0 {
		t.Error("DC diagnostics: expected repartitions under skew")
	}
	dado := mustNewKind(t, dynahist.KindDADO, dynahist.WithBuckets(8)).(*dynahist.DADO)
	for _, v := range randomValues(7, 3000, 500) {
		if err := dado.Insert(float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	if dado.Kind() != dynahist.AbsDeviation {
		t.Error("Kind() wrong")
	}
	if dado.TotalDeviation() < 0 {
		t.Error("TotalDeviation negative")
	}
	if dado.Reorganisations() == 0 {
		t.Error("expected some reorganisations on random data")
	}
}

func TestInterfaceCompliance(t *testing.T) {
	var _ dynahist.Histogram = (*dynahist.DADO)(nil)
	var _ dynahist.Histogram = (*dynahist.DC)(nil)
	var _ dynahist.Histogram = (*dynahist.AC)(nil)
	var _ dynahist.Histogram = (*dynahist.Static)(nil)
	var _ dynahist.Histogram = (*dynahist.Concurrent)(nil)
}

func TestSnapshotRestorePublic(t *testing.T) {
	dado := mustNewKind(t, dynahist.KindDADO, dynahist.WithMemory(1024)).(*dynahist.DADO)
	values := randomValues(13, 10000, 2000)
	insertStream(t, dado, values)
	blob, err := dado.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	h, err := dynahist.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := h.(*dynahist.DADO)
	if !ok {
		t.Fatalf("DADO blob restored as %T", h)
	}
	if restored.Total() != dado.Total() || restored.MaxBuckets() != dado.MaxBuckets() {
		t.Fatal("restored DADO differs")
	}
	for x := 0.0; x <= 2001; x += 25 {
		if math.Abs(restored.CDF(x)-dado.CDF(x)) > 1e-12 {
			t.Fatalf("CDF differs at %v", x)
		}
	}
	dc := mustNewKind(t, dynahist.KindDC, dynahist.WithMemory(1024)).(*dynahist.DC)
	insertStream(t, dc, values)
	blob, err = dc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if h, err = dynahist.Restore(blob); err != nil {
		t.Fatal(err)
	}
	restoredDC, ok := h.(*dynahist.DC)
	if !ok {
		t.Fatalf("DC blob restored as %T", h)
	}
	if restoredDC.Total() != dc.Total() || restoredDC.SingularCount() != dc.SingularCount() {
		t.Fatal("restored DC differs")
	}
	if _, err := dynahist.Restore(nil); err == nil {
		t.Error("nil blob: want error")
	}
}

func TestQuantilePublic(t *testing.T) {
	h := mustNewKind(t, dynahist.KindDADO, dynahist.WithBuckets(32)).(*dynahist.DADO)
	// Uniform data over [0, 1000): the median should be near 500.
	for v := range 10000 {
		if err := h.Insert(float64(v % 1000)); err != nil {
			t.Fatal(err)
		}
	}
	med, err := h.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med < 400 || med > 600 {
		t.Errorf("median = %v, want ≈500", med)
	}
	p99, err := h.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 < 900 {
		t.Errorf("p99 = %v, want ≥900", p99)
	}
	if _, err := h.Quantile(0); err == nil {
		t.Error("q=0: want error")
	}
}
