package dynahist_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dynahist"
)

// kindValues builds the workload the matrix tests feed every kind.
func kindValues(n int) ([]float64, []int) {
	rng := rand.New(rand.NewSource(77))
	fs := make([]float64, n)
	is := make([]int, n)
	for i := range fs {
		v := rng.Intn(2000)
		fs[i] = float64(v)
		is[i] = v
	}
	return fs, is
}

// newOfKind constructs one histogram of every constructible kind with
// the options the kind needs, mirroring what a caller of the front
// door would write.
func newOfKind(t *testing.T, kind dynahist.Kind, values []int) dynahist.Histogram {
	t.Helper()
	opts := []dynahist.Option{dynahist.WithMemory(1024)}
	switch {
	case kind == dynahist.KindAC:
		opts = append(opts, dynahist.WithSeed(7))
	case !kind.Maintained():
		opts = append(opts, dynahist.WithValues(values))
	}
	h, err := dynahist.New(kind, opts...)
	if err != nil {
		t.Fatalf("New(%v): %v", kind, err)
	}
	return h
}

var matrixKinds = []dynahist.Kind{
	dynahist.KindDADO, dynahist.KindDVO, dynahist.KindDC, dynahist.KindAC,
	dynahist.KindEquiWidth, dynahist.KindEquiDepth, dynahist.KindCompressed,
	dynahist.KindVOptimal, dynahist.KindSADO, dynahist.KindSSBM,
}

// TestNewKindMatrix checks that the front door constructs every kind
// and that KindOf attributes the result correctly — including the
// DVO/DADO distinction that the old NewDVO naming wart blurred.
func TestNewKindMatrix(t *testing.T) {
	fs, is := kindValues(5000)
	for _, kind := range matrixKinds {
		h := newOfKind(t, kind, is)
		if got := dynahist.KindOf(h); got != kind {
			t.Errorf("KindOf(New(%v)) = %v", kind, got)
		}
		if kind.Maintained() {
			if err := dynahist.InsertAll(h, fs); err != nil {
				t.Fatalf("%v: InsertAll: %v", kind, err)
			}
		}
		if got, want := h.Total(), float64(len(fs)); math.Abs(got-want) > 0.5 {
			t.Errorf("%v: Total = %v, want %v", kind, got, want)
		}
		if cdf := h.CDF(1999); cdf < 0.99 {
			t.Errorf("%v: CDF(max) = %v, want ≈1", kind, cdf)
		}
	}
}

// TestRoundTripMatrix is the acceptance matrix: for every kind,
// New → insert → Snapshot → Restore must reproduce the identical
// bucket list and CDF without the caller ever naming the family to
// Restore.
func TestRoundTripMatrix(t *testing.T) {
	fs, is := kindValues(5000)
	for _, kind := range matrixKinds {
		h := newOfKind(t, kind, is)
		if kind.Maintained() {
			if err := dynahist.InsertAll(h, fs); err != nil {
				t.Fatalf("%v: InsertAll: %v", kind, err)
			}
		}
		blob, err := h.(dynahist.Snapshotter).Snapshot()
		if err != nil {
			t.Fatalf("%v: Snapshot: %v", kind, err)
		}
		r, err := dynahist.Restore(blob)
		if err != nil {
			t.Fatalf("%v: Restore: %v", kind, err)
		}
		if got := dynahist.KindOf(r); got != kind {
			t.Errorf("%v: restored kind = %v", kind, got)
		}
		assertSameHistogram(t, kind.String(), h, r)
	}
}

// TestRoundTripSharded round-trips the sharded engine through the same
// single door: one blob, no restorer argument, configuration intact.
func TestRoundTripSharded(t *testing.T) {
	fs, _ := kindValues(4000)
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(512))
	}, dynahist.WithShards(4), dynahist.WithMergeBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch(fs); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := dynahist.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := r.(*dynahist.Sharded)
	if !ok {
		t.Fatalf("Restore returned %T, want *Sharded", r)
	}
	if rs.NumShards() != 4 {
		t.Errorf("restored shard count = %d, want 4", rs.NumShards())
	}
	if got := rs.MemberKind(); got != dynahist.KindDADO {
		t.Errorf("restored MemberKind = %v, want dado", got)
	}
	assertSameHistogram(t, "sharded", s, rs)
	// The restored engine keeps maintaining.
	if err := rs.InsertBatch(fs[:100]); err != nil {
		t.Fatalf("restored engine InsertBatch: %v", err)
	}
	if got, want := rs.Total(), float64(len(fs)+100); math.Abs(got-want) > 0.5 {
		t.Errorf("restored engine Total = %v, want %v", got, want)
	}
}

// assertSameHistogram compares bucket lists exactly and the CDF at a
// grid of points.
func assertSameHistogram(t *testing.T, label string, a, b dynahist.Histogram) {
	t.Helper()
	ab, bb := a.Buckets(), b.Buckets()
	if len(ab) != len(bb) {
		t.Errorf("%s: bucket count %d vs %d after round trip", label, len(ab), len(bb))
		return
	}
	for i := range ab {
		if ab[i].Left != bb[i].Left || ab[i].Right != bb[i].Right {
			t.Errorf("%s: bucket %d borders [%v,%v) vs [%v,%v)",
				label, i, ab[i].Left, ab[i].Right, bb[i].Left, bb[i].Right)
		}
		if len(ab[i].Counters) != len(bb[i].Counters) {
			t.Errorf("%s: bucket %d counter count differs", label, i)
			continue
		}
		for j := range ab[i].Counters {
			if ab[i].Counters[j] != bb[i].Counters[j] {
				t.Errorf("%s: bucket %d counter %d: %v vs %v",
					label, i, j, ab[i].Counters[j], bb[i].Counters[j])
			}
		}
	}
	for x := 0.0; x <= 2000; x += 125 {
		if ac, bc := a.CDF(x), b.CDF(x); math.Abs(ac-bc) > 1e-12 {
			t.Errorf("%s: CDF(%v) %v vs %v after round trip", label, x, ac, bc)
		}
	}
}

// TestRestoreWithoutNamingFamily feeds Restore a shuffled bag of blobs
// from different families and checks each comes back as itself — the
// "caller never records the family out of band" property.
func TestRestoreWithoutNamingFamily(t *testing.T) {
	fs, is := kindValues(2000)
	blobs := map[dynahist.Kind][]byte{}
	for _, kind := range matrixKinds {
		h := newOfKind(t, kind, is)
		if kind.Maintained() {
			if err := dynahist.InsertAll(h, fs); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := h.(dynahist.Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blobs[kind] = blob
	}
	for kind, blob := range blobs {
		r, err := dynahist.Restore(blob)
		if err != nil {
			t.Fatalf("Restore(%v blob): %v", kind, err)
		}
		if got := dynahist.KindOf(r); got != kind {
			t.Errorf("blob of %v restored as %v", kind, got)
		}
	}
}

// TestNewOptionValidation checks that the builder rejects misuse with
// the typed sentinels instead of silently ignoring knobs.
func TestNewOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		kind dynahist.Kind
		opts []dynahist.Option
		want error
	}{
		{"no budget", dynahist.KindDADO, nil, dynahist.ErrBadBudget},
		{"both budgets", dynahist.KindDADO,
			[]dynahist.Option{dynahist.WithBuckets(8), dynahist.WithMemory(1024)},
			dynahist.ErrBadBudget},
		{"tiny memory", dynahist.KindDC,
			[]dynahist.Option{dynahist.WithMemory(3)}, dynahist.ErrBadBudget},
		{"gamma on dc", dynahist.KindDC,
			[]dynahist.Option{dynahist.WithMemory(1024), dynahist.WithGamma(1)},
			dynahist.ErrBadOption},
		{"alpha on ac", dynahist.KindAC,
			[]dynahist.Option{dynahist.WithMemory(1024), dynahist.WithAlphaMin(0.5)},
			dynahist.ErrBadOption},
		{"seed on dado", dynahist.KindDADO,
			[]dynahist.Option{dynahist.WithMemory(1024), dynahist.WithSeed(1)},
			dynahist.ErrBadOption},
		{"subbuckets on dc", dynahist.KindDC,
			[]dynahist.Option{dynahist.WithMemory(1024), dynahist.WithSubBuckets(3)},
			dynahist.ErrBadOption},
		{"values on maintained", dynahist.KindDVO,
			[]dynahist.Option{dynahist.WithMemory(1024), dynahist.WithValues([]int{1})},
			dynahist.ErrBadOption},
		{"static without values", dynahist.KindSADO,
			[]dynahist.Option{dynahist.WithBuckets(8)}, dynahist.ErrBadOption},
		{"bad alpha", dynahist.KindDC,
			[]dynahist.Option{dynahist.WithMemory(1024), dynahist.WithAlphaMin(2)},
			dynahist.ErrBadOption},
		{"negative disk factor with buckets", dynahist.KindAC,
			[]dynahist.Option{dynahist.WithBuckets(8), dynahist.WithDiskFactor(-5)},
			dynahist.ErrBadOption},
		{"negative disk factor with memory", dynahist.KindAC,
			[]dynahist.Option{dynahist.WithMemory(1024), dynahist.WithDiskFactor(-5)},
			dynahist.ErrBadOption},
		{"disk factor with sample capacity", dynahist.KindAC,
			[]dynahist.Option{dynahist.WithBuckets(8), dynahist.WithDiskFactor(10), dynahist.WithSampleCapacity(50)},
			dynahist.ErrBadOption},
		{"negative sample capacity", dynahist.KindAC,
			[]dynahist.Option{dynahist.WithBuckets(8), dynahist.WithSampleCapacity(-1)},
			dynahist.ErrBadOption},
		{"unknown kind", dynahist.Kind(200), nil, dynahist.ErrBadKind},
		{"sharded via new", dynahist.KindSharded, nil, dynahist.ErrBadKind},
		{"generic static via new", dynahist.KindStatic, nil, dynahist.ErrBadKind},
	}
	for _, tc := range cases {
		if _, err := dynahist.New(tc.kind, tc.opts...); !errors.Is(err, tc.want) {
			t.Errorf("%s: New = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestNewHonoursOptions spot-checks that options actually reach the
// built histogram.
func TestNewHonoursOptions(t *testing.T) {
	h, err := dynahist.New(dynahist.KindDVO,
		dynahist.WithBuckets(10), dynahist.WithSubBuckets(3))
	if err != nil {
		t.Fatal(err)
	}
	d := h.(*dynahist.Dynamic)
	if d.Kind() != dynahist.Variance {
		t.Errorf("KindDVO built deviation %v, want Variance", d.Kind())
	}
	if d.MaxBuckets() != 10 {
		t.Errorf("MaxBuckets = %d, want 10", d.MaxBuckets())
	}
	for i := range 300 {
		if err := d.Insert(float64(i % 50)); err != nil {
			t.Fatal(err)
		}
	}
	if bs := d.Buckets(); len(bs) > 0 && len(bs[0].Counters) != 3 {
		t.Errorf("sub-buckets = %d, want 3", len(bs[0].Counters))
	}

	ac, err := dynahist.New(dynahist.KindAC,
		dynahist.WithBuckets(16), dynahist.WithSampleCapacity(99), dynahist.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := ac.(*dynahist.AC).SampleCapacity(); got != 99 {
		t.Errorf("SampleCapacity = %d, want 99", got)
	}
}

// TestParseKind round-trips every kind name and rejects garbage.
func TestParseKind(t *testing.T) {
	for _, kind := range append(append([]dynahist.Kind{}, matrixKinds...),
		dynahist.KindSharded, dynahist.KindStatic) {
		got, err := dynahist.ParseKind(kind.String())
		if err != nil || got != kind {
			t.Errorf("ParseKind(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if _, err := dynahist.ParseKind("splines"); !errors.Is(err, dynahist.ErrBadKind) {
		t.Errorf("ParseKind(splines) = %v, want ErrBadKind", err)
	}
	if _, err := dynahist.ParseKind("unknown"); !errors.Is(err, dynahist.ErrBadKind) {
		t.Errorf(`ParseKind("unknown") = %v, want ErrBadKind`, err)
	}
}

// TestTypedSentinels checks that failures deep in the internal layers
// surface as the public sentinels.
func TestTypedSentinels(t *testing.T) {
	h, err := dynahist.New(dynahist.KindDC, dynahist.WithMemory(1024))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(1); !errors.Is(err, dynahist.ErrEmptyHistogram) {
		t.Errorf("Delete on empty DC = %v, want ErrEmptyHistogram", err)
	}
	if _, err := h.(dynahist.Estimator).Quantile(0.5); !errors.Is(err, dynahist.ErrEmptyHistogram) {
		t.Errorf("Quantile on empty = %v, want ErrEmptyHistogram", err)
	}
	if _, err := dynahist.New(dynahist.KindDADO, dynahist.WithMemory(2)); !errors.Is(err, dynahist.ErrBadBudget) {
		t.Errorf("2-byte DADO = want ErrBadBudget")
	}
	if _, err := dynahist.Restore([]byte("garbage")); !errors.Is(err, dynahist.ErrBadSnapshot) {
		t.Errorf("Restore(garbage) want ErrBadSnapshot")
	}
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(512))
	}, dynahist.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1); !errors.Is(err, dynahist.ErrEmptyHistogram) {
		t.Errorf("Delete on empty Sharded = %v, want ErrEmptyHistogram", err)
	}
}
