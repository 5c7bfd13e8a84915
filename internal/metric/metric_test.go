package metric

import (
	"math"
	"testing"

	"dynahist/internal/dist"
	"dynahist/internal/histogram"
)

// exactHistogram builds a piecewise histogram with one bucket per
// domain value, i.e. a perfect approximation of the tracker.
func exactHistogram(t *testing.T, tr *dist.Tracker) *histogram.Piecewise {
	t.Helper()
	var buckets []histogram.Bucket
	values, counts := tr.NonZero()
	for i, v := range values {
		buckets = append(buckets, histogram.Bucket{
			Left:  float64(v),
			Right: float64(v) + 1,
			Subs:  []float64{float64(counts[i])},
		})
	}
	p, err := histogram.NewPiecewise(buckets)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func populated(t *testing.T, domain int, values ...int) *dist.Tracker {
	t.Helper()
	tr := dist.New(domain)
	for _, v := range values {
		if err := tr.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestKSPerfectApproximationIsZero(t *testing.T) {
	tr := populated(t, 20, 3, 3, 7, 12, 12, 12, 19)
	p := exactHistogram(t, tr)
	d, err := KS(p.CDF, tr)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-12 {
		t.Errorf("KS of exact histogram = %v, want 0", d)
	}
}

func TestKSEmptyTruth(t *testing.T) {
	tr := dist.New(5)
	if _, err := KS(func(float64) float64 { return 0 }, tr); err == nil {
		t.Error("want error for empty truth")
	}
}

func TestKSDetectsShift(t *testing.T) {
	// All mass at 0 in truth; approximation puts all mass at 10.
	tr := populated(t, 10, 0, 0, 0, 0)
	p, err := histogram.NewPiecewise([]histogram.Bucket{
		{Left: 10, Right: 11, Subs: []float64{4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := KS(p.CDF, tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-12 {
		t.Errorf("KS of maximally-shifted histogram = %v, want 1", d)
	}
}

func TestKSHalfMassOff(t *testing.T) {
	// Truth: 2 points at 0, 2 at 10. Approx: 4 points at 0.
	tr := populated(t, 10, 0, 0, 10, 10)
	p, err := histogram.NewPiecewise([]histogram.Bucket{
		{Left: 0, Right: 1, Subs: []float64{4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := KS(p.CDF, tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("KS = %v, want 0.5", d)
	}
}

func TestKSInUnitInterval(t *testing.T) {
	tr := populated(t, 50, 1, 5, 5, 20, 33, 33, 33, 49)
	p, err := histogram.NewPiecewise([]histogram.Bucket{
		{Left: 0, Right: 51, Subs: []float64{8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := KS(p.CDF, tr)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 || d > 1 {
		t.Errorf("KS = %v outside [0,1]", d)
	}
	if d == 0 {
		t.Error("uniform bucket over spiky data should have positive KS")
	}
}

func TestAvgRelativeError(t *testing.T) {
	tr := populated(t, 10, 2, 2, 8, 8)
	p := exactHistogram(t, tr)
	queries := []RangeQuery{{0, 5}, {6, 10}, {0, 10}}
	e, err := AvgRelativeError(p.EstimateRange, tr, queries)
	if err != nil {
		t.Fatal(err)
	}
	if e > 1e-9 {
		t.Errorf("error of exact = %v, want 0", e)
	}
	// Estimator that always doubles: relative error 100%.
	double := func(lo, hi float64) float64 { return 2 * float64(tr.RangeCount(int(lo), int(hi))) }
	e, err = AvgRelativeError(double, tr, queries)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-100) > 1e-9 {
		t.Errorf("error of doubling estimator = %v, want 100", e)
	}
}

func TestAvgRelativeErrorSkipsEmpty(t *testing.T) {
	tr := populated(t, 10, 2)
	queries := []RangeQuery{{5, 9}} // exact answer 0 — skipped
	if _, err := AvgRelativeError(func(lo, hi float64) float64 { return 0 }, tr, queries); err == nil {
		t.Error("all-empty queries: want error")
	}
}

func TestUniformQueries(t *testing.T) {
	qs := UniformQueries(100, 10)
	if len(qs) != 10 {
		t.Fatalf("got %d queries, want 10", len(qs))
	}
	for _, q := range qs {
		if q.Lo < 0 || q.Hi > 100 || q.Hi < q.Lo {
			t.Errorf("bad query %+v", q)
		}
	}
	if UniformQueries(100, 0) != nil {
		t.Error("q=0 should return nil")
	}
}
