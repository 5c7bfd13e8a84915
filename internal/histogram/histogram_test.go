package histogram

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dynahist/internal/histerr"
)

func bucketsFixture() []Bucket {
	// Three buckets over [0,10), [10,20), [25,30) — deliberate gap.
	return []Bucket{
		{Left: 0, Right: 10, Subs: []float64{4, 6}},
		{Left: 10, Right: 20, Subs: []float64{10}},
		{Left: 25, Right: 30, Subs: []float64{2, 0}},
	}
}

func TestBucketCountWidth(t *testing.T) {
	b := Bucket{Left: 2, Right: 6, Subs: []float64{1.5, 2.5}}
	if got := b.Count(); got != 4 {
		t.Errorf("Count = %v, want 4", got)
	}
	if got := b.Width(); got != 4 {
		t.Errorf("Width = %v, want 4", got)
	}
	if !b.Contains(2) || b.Contains(6) || b.Contains(1.99) {
		t.Error("Contains half-open semantics violated")
	}
}

func TestSubIndex(t *testing.T) {
	b := Bucket{Left: 0, Right: 8, Subs: []float64{0, 0, 0, 0}}
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {1.9, 0}, {2, 1}, {3.9, 1}, {4, 2}, {7.9, 3},
	}
	for _, c := range cases {
		if got := b.SubIndex(c.x); got != c.want {
			t.Errorf("SubIndex(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	single := Bucket{Left: 0, Right: 8, Subs: []float64{0}}
	if single.SubIndex(5) != 0 {
		t.Error("single sub-bucket must index 0")
	}
}

func TestBucketMassBelow(t *testing.T) {
	b := Bucket{Left: 0, Right: 10, Subs: []float64{4, 6}}
	cases := []struct {
		x    float64
		want float64
	}{
		{-1, 0}, {0, 0}, {2.5, 2}, {5, 4}, {7.5, 7}, {10, 10}, {11, 10},
	}
	for _, c := range cases {
		if got := b.MassBelow(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MassBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := b.Mass(2.5, 7.5); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mass(2.5,7.5) = %v, want 5", got)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(bucketsFixture()); err != nil {
		t.Fatalf("fixture should validate: %v", err)
	}
	bad := []struct {
		name    string
		buckets []Bucket
	}{
		{"no subs", []Bucket{{Left: 0, Right: 1, Subs: nil}}},
		{"zero width", []Bucket{{Left: 1, Right: 1, Subs: []float64{1}}}},
		{"inverted", []Bucket{{Left: 2, Right: 1, Subs: []float64{1}}}},
		{"nan border", []Bucket{{Left: math.NaN(), Right: 1, Subs: []float64{1}}}},
		{"inf border", []Bucket{{Left: 0, Right: math.Inf(1), Subs: []float64{1}}}},
		{"negative count", []Bucket{{Left: 0, Right: 1, Subs: []float64{-2}}}},
		{"nan count", []Bucket{{Left: 0, Right: 1, Subs: []float64{math.NaN()}}}},
		{"overlap", []Bucket{
			{Left: 0, Right: 5, Subs: []float64{1}},
			{Left: 4, Right: 8, Subs: []float64{1}},
		}},
	}
	for _, c := range bad {
		if err := Validate(c.buckets); err == nil {
			t.Errorf("%s: want validation error", c.name)
		}
	}
}

func TestFindAndNearestBucket(t *testing.T) {
	bs := bucketsFixture()
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {9.99, 0}, {10, 1}, {19.99, 1}, {25, 2}, {29.99, 2},
		{-1, -1}, {20, -1}, {22, -1}, {30, -1}, {100, -1},
	}
	for _, c := range cases {
		if got := FindBucket(bs, c.x); got != c.want {
			t.Errorf("FindBucket(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	nearest := []struct {
		x    float64
		want int
	}{
		{-5, 0}, {5, 0}, {21, 1}, {24.9, 2}, {50, 2},
	}
	for _, c := range nearest {
		if got := NearestBucket(bs, c.x); got != c.want {
			t.Errorf("NearestBucket(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if NearestBucket(nil, 3) != -1 {
		t.Error("NearestBucket(nil) should be -1")
	}
}

func TestMassBelowList(t *testing.T) {
	bs := bucketsFixture()
	cases := []struct {
		x    float64
		want float64
	}{
		{-1, 0}, {0, 0}, {5, 4}, {10, 10}, {15, 15}, {20, 20},
		{22, 20},   // in the gap: flat
		{27.5, 22}, // sub-bucket {2,0}: all mass in the left half
		{26.25, 21}, {30, 22}, {99, 22},
	}
	for _, c := range cases {
		if got := MassBelow(bs, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MassBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPiecewiseCDFAndRange(t *testing.T) {
	p, err := NewPiecewise(bucketsFixture())
	if err != nil {
		t.Fatal(err)
	}
	if p.Total() != 22 {
		t.Fatalf("Total = %v, want 22", p.Total())
	}
	if got := p.CDF(20); math.Abs(got-20.0/22) > 1e-12 {
		t.Errorf("CDF(20) = %v", got)
	}
	// Integer range [10,19] corresponds to mass over [10,20).
	if got := p.EstimateRange(10, 19); math.Abs(got-10) > 1e-12 {
		t.Errorf("EstimateRange(10,19) = %v, want 10", got)
	}
	if got := p.EstimateRange(19, 10); got != 0 {
		t.Errorf("EstimateRange inverted = %v, want 0", got)
	}
}

func TestPiecewiseInsertDelete(t *testing.T) {
	p, err := NewPiecewise(bucketsFixture())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(5); err != nil {
		t.Fatal(err)
	}
	if p.Total() != 23 {
		t.Fatalf("Total after insert = %v", p.Total())
	}
	// Out-of-range insert lands in the nearest bucket.
	if err := p.Insert(100); err != nil {
		t.Fatal(err)
	}
	bs := p.Buckets()
	if got := bs[2].Count(); got != 3 {
		t.Fatalf("out-of-range insert: bucket 2 count = %v, want 3", got)
	}
	if err := p.Delete(5); err != nil {
		t.Fatal(err)
	}
	if p.Total() != 23 {
		t.Fatalf("Total after delete = %v", p.Total())
	}
	if err := p.Insert(math.NaN()); err == nil {
		t.Error("Insert(NaN): want error")
	}
	if err := p.Delete(math.Inf(1)); err == nil {
		t.Error("Delete(Inf): want error")
	}
}

func TestPiecewiseDeleteSpill(t *testing.T) {
	// Bucket 2 is empty in one sub; deleting there must spill.
	bs := []Bucket{
		{Left: 0, Right: 10, Subs: []float64{5}},
		{Left: 10, Right: 20, Subs: []float64{0}},
	}
	p, err := NewPiecewise(bs)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(15); err != nil {
		t.Fatal(err)
	}
	got := p.Buckets()
	if got[0].Count() != 4 || got[1].Count() != 0 {
		t.Fatalf("spill delete: counts %v %v, want 4 0", got[0].Count(), got[1].Count())
	}
	// Exhaust everything, then one more delete must fail.
	for range 4 {
		if err := p.Delete(3); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Delete(3); err == nil {
		t.Error("delete from empty: want error")
	}
}

// TestPiecewiseDeleteSpreadsFractionalMass: two half-point buckets
// hold one point between them, so deleting it must take half from each
// rather than report ErrEmpty.
func TestPiecewiseDeleteSpreadsFractionalMass(t *testing.T) {
	p, err := NewPiecewise([]Bucket{
		{Left: 0, Right: 1, Subs: []float64{0.5}},
		{Left: 1, Right: 2, Subs: []float64{0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Total() != 1 {
		t.Fatalf("Total = %v, want 1", p.Total())
	}
	if err := p.Delete(0); err != nil {
		t.Fatalf("Delete(0) with Total() = 1: %v", err)
	}
	got := p.Buckets()
	if p.Total() != 0 || got[0].Count() != 0 || got[1].Count() != 0 {
		t.Fatalf("after delete: Total %v, counts %v %v, want all 0", p.Total(), got[0].Count(), got[1].Count())
	}
	if err := p.Delete(0); !errors.Is(err, histerr.ErrEmpty) {
		t.Fatalf("delete from empty: %v, want ErrEmpty", err)
	}
}

func TestNewPiecewiseRejectsInvalid(t *testing.T) {
	if _, err := NewPiecewise([]Bucket{{Left: 3, Right: 1, Subs: []float64{1}}}); err == nil {
		t.Error("want validation error")
	}
}

func TestPiecewiseBucketsIsCopy(t *testing.T) {
	p, err := NewPiecewise(bucketsFixture())
	if err != nil {
		t.Fatal(err)
	}
	bs := p.Buckets()
	bs[0].Subs[0] = 999
	if p.Buckets()[0].Subs[0] == 999 {
		t.Error("Buckets() must return a deep copy")
	}
}

func TestBucketsForMemory(t *testing.T) {
	cases := []struct {
		mem, subs, want int
	}{
		{1024, 1, 127}, // DC at 1KB: (1024-4)/8
		{1024, 2, 85},  // DADO at 1KB: (1024-4)/12
		{144, 1, 17},   // 0.14 KB ≈ 143B... 144 used here
		{16, 1, 1},
	}
	for _, c := range cases {
		got, err := BucketsForMemory(c.mem, c.subs)
		if err != nil {
			t.Fatalf("BucketsForMemory(%d,%d): %v", c.mem, c.subs, err)
		}
		if got != c.want {
			t.Errorf("BucketsForMemory(%d,%d) = %d, want %d", c.mem, c.subs, got, c.want)
		}
		if m := MemoryForBuckets(got, c.subs); m > c.mem {
			t.Errorf("MemoryForBuckets(%d,%d) = %d exceeds budget %d", got, c.subs, m, c.mem)
		}
	}
	if _, err := BucketsForMemory(4, 1); err == nil {
		t.Error("4 bytes: want error")
	}
	if _, err := BucketsForMemory(0, 1); err == nil {
		t.Error("0 bytes: want error")
	}
	if _, err := BucketsForMemory(100, 0); err == nil {
		t.Error("0 subs: want error")
	}
}

func TestKB(t *testing.T) {
	if KB(1) != 1024 || KB(0.5) != 512 {
		t.Errorf("KB conversion wrong: %d %d", KB(1), KB(0.5))
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	bs := bucketsFixture()
	data, err := MarshalBuckets(bs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBuckets(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(bs) {
		t.Fatalf("round trip length %d, want %d", len(got), len(bs))
	}
	for i := range bs {
		if got[i].Left != bs[i].Left || got[i].Right != bs[i].Right {
			t.Errorf("bucket %d borders differ", i)
		}
		for j := range bs[i].Subs {
			if got[i].Subs[j] != bs[i].Subs[j] {
				t.Errorf("bucket %d sub %d differs", i, j)
			}
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	data, err := MarshalBuckets(bucketsFixture())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalBuckets(data[:len(data)-3]); err == nil {
		t.Error("truncated: want error")
	}
	if _, err := UnmarshalBuckets(append(data, 0)); err == nil {
		t.Error("trailing bytes: want error")
	}
	bad := make([]byte, len(data))
	copy(bad, data)
	bad[0] ^= 0xff
	if _, err := UnmarshalBuckets(bad); err == nil {
		t.Error("bad magic: want error")
	}
	if _, err := UnmarshalBuckets(nil); err == nil {
		t.Error("empty: want error")
	}
}

// Property: piecewise CDF is monotone, bounded, and consistent with
// EstimateRange.
func TestPiecewiseCDFProperty(t *testing.T) {
	f := func(c1, c2, c3, c4 uint8) bool {
		bs := []Bucket{
			{Left: 0, Right: 10, Subs: []float64{float64(c1), float64(c2)}},
			{Left: 10, Right: 20, Subs: []float64{float64(c3), float64(c4)}},
		}
		total := float64(c1) + float64(c2) + float64(c3) + float64(c4)
		if total == 0 {
			return true
		}
		p, err := NewPiecewise(bs)
		if err != nil {
			return false
		}
		prev := 0.0
		for x := -2.0; x <= 22; x += 0.5 {
			c := p.CDF(x)
			if c < prev-1e-12 || c < 0 || c > 1+1e-12 {
				return false
			}
			prev = c
		}
		// Range estimate over the whole domain recovers the total.
		return math.Abs(p.EstimateRange(0, 19)-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: serialization round-trips arbitrary valid bucket lists.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(counts []uint16) bool {
		if len(counts) == 0 {
			counts = []uint16{1}
		}
		if len(counts) > 64 {
			counts = counts[:64]
		}
		bs := make([]Bucket, len(counts))
		for i, c := range counts {
			bs[i] = Bucket{
				Left:  float64(i * 10),
				Right: float64(i*10 + 10),
				Subs:  []float64{float64(c), float64(c) / 2},
			}
		}
		data, err := MarshalBuckets(bs)
		if err != nil {
			return false
		}
		got, err := UnmarshalBuckets(data)
		if err != nil {
			return false
		}
		if len(got) != len(bs) {
			return false
		}
		for i := range bs {
			if got[i].Left != bs[i].Left || got[i].Right != bs[i].Right ||
				got[i].Subs[0] != bs[i].Subs[0] || got[i].Subs[1] != bs[i].Subs[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	bs := []Bucket{
		{Left: 0, Right: 10, Subs: []float64{5, 5}},
		{Left: 10, Right: 20, Subs: []float64{10}},
	}
	cases := []struct{ q, want float64 }{
		{0.25, 5},
		{0.5, 10},
		{0.75, 15},
		{1.0, 20},
		{0.125, 2.5},
	}
	for _, c := range cases {
		got, err := Quantile(bs, c.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", c.q, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	for _, bad := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := Quantile(bs, bad); err == nil {
			t.Errorf("Quantile(%v): want error", bad)
		}
	}
	if _, err := Quantile([]Bucket{{Left: 0, Right: 1, Subs: []float64{0}}}, 0.5); err == nil {
		t.Error("empty mass: want error")
	}
}

// Property: Quantile inverts the CDF — CDF(Quantile(q)) ≈ q for every
// valid q on a random histogram, and Quantile is monotone in q.
func TestQuantileInvertsCDFProperty(t *testing.T) {
	f := func(c1, c2, c3 uint8) bool {
		bs := []Bucket{
			{Left: 0, Right: 8, Subs: []float64{float64(c1) + 1, float64(c2) + 1}},
			{Left: 12, Right: 20, Subs: []float64{float64(c3) + 1}},
		}
		total := TotalCount(bs)
		prev := -1.0
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
			x, err := Quantile(bs, q)
			if err != nil {
				return false
			}
			if x < prev {
				return false
			}
			prev = x
			cdf := MassBelow(bs, x) / total
			if math.Abs(cdf-q) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
