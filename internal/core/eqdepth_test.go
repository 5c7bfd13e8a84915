package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dynahist/internal/dist"
	"dynahist/internal/distgen"
	"dynahist/internal/histogram"
	"dynahist/internal/metric"
)

func TestNewEDDadoValidation(t *testing.T) {
	if _, err := NewEDDado(AbsDeviation, 1); err == nil {
		t.Error("maxBuckets 1: want error")
	}
	if _, err := NewEDDado(Deviation(7), 4); err == nil {
		t.Error("bad kind: want error")
	}
	if _, err := NewEDDadoMemory(AbsDeviation, 8); err == nil {
		t.Error("8 bytes: want error")
	}
	h, err := NewEDDadoMemory(AbsDeviation, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// 20 bytes per bucket (left + split + right share + 2 counters):
	// (1024−4)/20 = 51 buckets.
	if h.MaxBuckets() != 51 {
		t.Errorf("1KB ED-DADO = %d buckets, want 51", h.MaxBuckets())
	}
}

// edLoad replaces h's state with the given buckets, each entry being
// (left, split, right, cl, cr) — the tests' state-assembly helper for
// the flat-store layout.
func edLoad(h *EDDado, entries ...[5]float64) {
	h.st.Reset()
	h.splits = h.splits[:0]
	h.devs = h.devs[:0]
	for i, e := range entries {
		h.st.Insert(i, e[0], e[2])
		h.st.Add(i, 0, e[3])
		h.st.Add(i, 1, e[4])
		h.splits = append(h.splits, e[1])
		h.devs = append(h.devs, 0)
	}
	for i := range entries {
		h.devs[i] = h.deviation(i)
	}
}

func TestEDBucketMassBelow(t *testing.T) {
	h, err := NewEDDado(AbsDeviation, 4)
	if err != nil {
		t.Fatal(err)
	}
	edLoad(h, [5]float64{0, 2, 10, 4, 4})
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {1, 2}, {2, 4}, {6, 6}, {10, 8}, {12, 8},
	}
	for _, c := range cases {
		if got := h.massBelow(0, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("massBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestEDDadoDeviation(t *testing.T) {
	h, err := NewEDDado(AbsDeviation, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Split at the geometric midpoint with equal counts: zero deviation.
	edLoad(h, [5]float64{0, 5, 10, 4, 4})
	if got := h.deviation(0); got > 1e-12 {
		t.Errorf("balanced deviation = %v, want 0", got)
	}
	// Split far off-center with equal counts: halves have different
	// densities, so deviation is positive.
	edLoad(h, [5]float64{0, 2, 10, 4, 4})
	if got := h.deviation(0); got <= 0 {
		t.Errorf("skewed deviation = %v, want > 0", got)
	}
}

func TestEDDadoInsertDeleteMass(t *testing.T) {
	h, err := NewEDDado(AbsDeviation, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for range 3000 {
		if err := h.Insert(float64(rng.Intn(400))); err != nil {
			t.Fatal(err)
		}
	}
	if h.Total() != 3000 {
		t.Fatalf("Total = %v", h.Total())
	}
	for range 1000 {
		if err := h.Delete(float64(rng.Intn(400))); err != nil {
			t.Fatal(err)
		}
	}
	if h.Total() != 2000 {
		t.Fatalf("Total after deletes = %v", h.Total())
	}
	if got := h.EstimateRange(0, 400); math.Abs(got-2000) > 1e-6 {
		t.Fatalf("whole-range estimate %v, want 2000", got)
	}
	if err := histogram.Validate(h.Buckets()); err != nil {
		t.Fatal(err)
	}
}

// TestEDDadoDeleteSpreadsFractionalMass replays a sequence after which
// the last point is spread over buckets that each hold less than one:
// the delete must take it from them instead of reporting ErrEmpty.
func TestEDDadoDeleteSpreadsFractionalMass(t *testing.T) {
	h, err := NewEDDado(AbsDeviation, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []int{2, 8, 0, -2, -8, 6, -6} {
		if op < 0 {
			err = h.Delete(float64(-op))
		} else {
			err = h.Insert(float64(op))
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	for i := range h.st.Len() {
		if h.st.Count(i) >= 1 {
			t.Fatalf("bucket %d holds %v; the case needs every bucket below one point", i, h.st.Count(i))
		}
	}
	if err := h.Delete(0); err != nil {
		t.Fatalf("Delete(0) with Total() = 1: %v", err)
	}
	if h.Total() != 0 {
		t.Fatalf("Total = %v after deleting the last point", h.Total())
	}
	if mass := histogram.TotalCount(h.Buckets()); math.Abs(mass) > 1e-9 {
		t.Fatalf("bucket mass %v after deleting the last point", mass)
	}
}

func TestEDDadoCDFMonotone(t *testing.T) {
	for _, kind := range []Deviation{Variance, AbsDeviation} {
		h, err := NewEDDado(kind, 16)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		for range 4000 {
			if err := h.Insert(float64(rng.Intn(300))); err != nil {
				t.Fatal(err)
			}
		}
		prev := 0.0
		for x := -2.0; x <= 305; x += 0.5 {
			c := h.CDF(x)
			if c < prev-1e-12 || c < 0 || c > 1+1e-12 {
				t.Fatalf("%v: CDF not monotone at %v: %v", kind, x, c)
			}
			prev = c
		}
		if math.Abs(prev-1) > 1e-9 {
			t.Fatalf("%v: CDF(max) = %v", kind, prev)
		}
	}
}

func TestEDDadoBudget(t *testing.T) {
	h, err := NewEDDado(AbsDeviation, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for range 5000 {
		if err := h.Insert(float64(rng.Intn(2000))); err != nil {
			t.Fatal(err)
		}
	}
	if h.st.Len() > 6 {
		t.Fatalf("%d buckets over budget 6", h.st.Len())
	}
}

func TestEDDadoRejectsNonFinite(t *testing.T) {
	h, err := NewEDDado(AbsDeviation, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Insert(math.NaN()); err == nil {
		t.Error("Insert(NaN): want error")
	}
	if err := h.Delete(math.Inf(1)); err == nil {
		t.Error("Delete(Inf): want error")
	}
	if err := h.Delete(3); err == nil {
		t.Error("delete from empty: want error")
	}
}

func TestEDDadoMergeRestoresEquiDepth(t *testing.T) {
	h, err := NewEDDado(AbsDeviation, 4)
	if err != nil {
		t.Fatal(err)
	}
	edLoad(h,
		[5]float64{0, 5, 10, 2, 2},
		[5]float64{10, 15, 20, 10, 10},
	)
	h.mergeAt(0)
	row := h.st.Row(0)
	if math.Abs(row[0]-row[1]) > 1e-9 {
		t.Errorf("merged counts not equi-depth: %v vs %v", row[0], row[1])
	}
	if math.Abs(h.count(0)-24) > 1e-9 {
		t.Errorf("merged count %v, want 24", h.count(0))
	}
	// Mass median lies inside the heavy second bucket.
	if h.splits[0] <= 10 || h.splits[0] >= 20 {
		t.Errorf("split %v should be inside (10,20)", h.splits[0])
	}
}

func TestEDDadoQuality(t *testing.T) {
	cfg := distgen.Reference(5)
	cfg.Points = 20000
	cfg.Clusters = 200
	values, err := distgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	values = distgen.Shuffled(values, 5)
	h, err := NewEDDadoMemory(AbsDeviation, 1024)
	if err != nil {
		t.Fatal(err)
	}
	truth := dist.New(cfg.Domain)
	for _, v := range values {
		if err := h.Insert(float64(v)); err != nil {
			t.Fatal(err)
		}
		if err := truth.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	ks, err := metric.KS(h.CDF, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ks > 0.05 {
		t.Errorf("ED-DADO KS = %v, want < 0.05", ks)
	}
}

// Property: mass is conserved across arbitrary workloads.
func TestEDDadoMassProperty(t *testing.T) {
	f := func(ops []int16) bool {
		h, err := NewEDDado(AbsDeviation, 6)
		if err != nil {
			return false
		}
		want := 0.0
		for _, op := range ops {
			v := float64(int(op) % 300)
			if v < 0 {
				v = -v
			}
			if op%3 != 0 {
				if h.Insert(v) == nil {
					want++
				}
			} else if h.Delete(v) == nil {
				want--
			}
		}
		if math.Abs(h.Total()-want) > 1e-6 {
			return false
		}
		return math.Abs(histogram.TotalCount(h.Buckets())-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
