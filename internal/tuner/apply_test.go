package tuner

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynahist/internal/histogram"
)

// ApplyTo must replay a journal exactly as refApplyTo does: the same
// borders, counters and running totals, compared bit for bit.

// applyCase is one seeded replay input: a bucket list, its sub-counter
// count, a journal and the tuner bounds.
type applyCase struct {
	buckets []histogram.Bucket
	k       int
	journal []Record
	cfg     Config
}

// randomApplyCase builds a valid bucket list of about n buckets with k
// sub-counters each — on a quarter-unit grid, with gaps, zero-count
// counters and overlaps of less than 1e-9 — and a journal of about
// recs records that covers ranges across buckets, in gaps, off both
// ends, narrower than one counter, and runs of records repeating one
// endpoint so that a border walks toward it.
func randomApplyCase(rng *rand.Rand, n, k, recs int) applyCase {
	if n < 1 {
		n = 1
	}
	if k < 1 {
		k = 1
	}
	c := applyCase{k: k}
	x := math.Round(rng.Float64()*400)/4 - 50
	for len(c.buckets) < n {
		if len(c.buckets) > 0 && rng.Intn(5) == 0 {
			x += float64(1+rng.Intn(40)) / 4 // leave a gap
		}
		l, r := x, x+float64(1+rng.Intn(80))/4
		if len(c.buckets) > 0 && c.buckets[len(c.buckets)-1].Right == l && rng.Intn(6) == 0 {
			l -= rng.Float64() * 9e-10 // overlap the predecessor by < 1e-9
		}
		subs := make([]float64, k)
		for j := range subs {
			switch rng.Intn(4) {
			case 0: // zero-count counter
			case 1:
				subs[j] = rng.Float64() * 20
			default:
				subs[j] = float64(rng.Intn(200))
			}
		}
		c.buckets = append(c.buckets, histogram.Bucket{Left: l, Right: r, Subs: subs})
		x = r
	}
	lo, hi := c.buckets[0].Left, c.buckets[len(c.buckets)-1].Right
	// endpoint draws a predicate endpoint: mostly inside the extent
	// (integer or half-integer, so it lands mid-bucket and mid-counter),
	// sometimes off either end.
	endpoint := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Floor(lo) - float64(1+rng.Intn(20))
		case 1:
			return math.Ceil(hi) + float64(rng.Intn(20))
		}
		return math.Round((lo+rng.Float64()*(hi-lo))*2) / 2
	}
	for len(c.journal) < recs {
		var rec Record
		switch rng.Intn(6) {
		case 0: // narrower than one counter: [v, v+1) inside a wide bucket
			v := endpoint()
			rec = Record{Lo: v, Hi: v}
		case 1: // wholly inside a gap, when the list has one
			for i := 1; i < len(c.buckets); i++ {
				if g := c.buckets[i].Left - c.buckets[i-1].Right; g > 1 {
					rec = Record{Lo: c.buckets[i-1].Right, Hi: c.buckets[i-1].Right + g - 1}
					break
				}
			}
			if rec == (Record{}) {
				v := endpoint()
				rec = Record{Lo: v, Hi: v + 3}
			}
		default:
			a, b := endpoint(), endpoint()
			rec = Record{Lo: math.Min(a, b), Hi: math.Max(a, b)}
		}
		switch rng.Intn(3) {
		case 0:
			rec.Observed = 0
		case 1:
			rec.Observed = float64(rng.Intn(2000))
		default:
			rec.Observed = rng.Float64() * 500
		}
		// A run of repeats walks one border toward the same endpoint.
		for range 1 + rng.Intn(2)*rng.Intn(8) {
			if len(c.journal) < recs {
				c.journal = append(c.journal, rec)
			}
		}
	}
	if rng.Intn(2) == 0 {
		c.cfg = Config{
			Alpha:         0.1 + 0.9*rng.Float64(),
			BorderStep:    0.1 + 0.9*rng.Float64(),
			MaxBorderFrac: 0.1 + 0.8*rng.Float64(),
			MaxScale:      1.5 + 4*rng.Float64(),
		}
	}
	return c
}

// checkApplyToMatchesRef replays c through ApplyTo and refApplyTo on
// two stores built from the same buckets and fails unless every
// border, counter and running total agrees bit for bit.
func checkApplyToMatchesRef(t *testing.T, c applyCase) {
	t.Helper()
	got, err := histogram.StoreOfBuckets(histogram.CloneBuckets(c.buckets), c.k)
	if err != nil {
		t.Fatalf("StoreOfBuckets: %v", err)
	}
	want := got.Clone()
	tu := New(c.cfg)
	for _, rec := range c.journal {
		if err := tu.Observe(rec); err != nil {
			t.Fatalf("Observe(%+v): %v", rec, err)
		}
	}
	tu.ApplyTo(got)
	refApplyTo(tu, want)
	if got.Len() != want.Len() {
		t.Fatalf("%d buckets, reference %d", got.Len(), want.Len())
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := 0; i < want.Len(); i++ {
		if !same(got.Left(i), want.Left(i)) || !same(got.Right(i), want.Right(i)) {
			t.Fatalf("bucket %d = [%v,%v), reference [%v,%v)",
				i, got.Left(i), got.Right(i), want.Left(i), want.Right(i))
		}
		if !same(got.Count(i), want.Count(i)) {
			t.Fatalf("bucket %d running total %v, reference %v", i, got.Count(i), want.Count(i))
		}
		gr, wr := got.Row(i), want.Row(i)
		for j := range wr {
			if !same(gr[j], wr[j]) {
				t.Fatalf("bucket %d row %v, reference %v", i, gr, wr)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("replayed store invalid: %v", err)
	}
}

func TestApplyToMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range 1500 {
		c := randomApplyCase(rng, 1+rng.Intn(40), 1+rng.Intn(4), 1+rng.Intn(24))
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkApplyToMatchesRef(t, c) })
	}
}

// TestApplyToMatchesRefOnWalkedBorder pins the border walk: one record
// repeated until its endpoints have pulled their nearest shared
// borders most of the way onto them, for every K the families use.
func TestApplyToMatchesRefOnWalkedBorder(t *testing.T) {
	for k := 1; k <= 4; k++ {
		var bs []histogram.Bucket
		for i := range 10 {
			subs := make([]float64, k)
			for j := range subs {
				subs[j] = float64(10 * (i + j + 1))
			}
			bs = append(bs, histogram.Bucket{Left: float64(10 * i), Right: float64(10 * (i + 1)), Subs: subs})
		}
		c := applyCase{buckets: bs, k: k}
		for range 40 {
			c.journal = append(c.journal, Record{Lo: 14, Hi: 26, Observed: 900})
		}
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) { checkApplyToMatchesRef(t, c) })
	}
}

// FuzzApplyTo compares ApplyTo with refApplyTo over seeded random
// bucket lists and journals; the fuzzer varies the seed and the sizes.
func FuzzApplyTo(f *testing.F) {
	for seed := range int64(16) {
		f.Add(seed, uint8(1+seed*3), uint8(1+seed%4), uint8(1+seed*2))
	}
	f.Fuzz(func(t *testing.T, seed int64, n, k, recs uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkApplyToMatchesRef(t, randomApplyCase(rng, int(n%64), int(k%4)+1, int(recs%64)))
	})
}

// BenchmarkApplyTo replays an 8-record journal onto an 840-bucket,
// one-counter overlay — the size of a 4-shard DADO's merged view.
func BenchmarkApplyTo(b *testing.B) {
	bs := make([]histogram.Bucket, 840)
	for i := range bs {
		bs[i] = histogram.Bucket{Left: float64(6 * i), Right: float64(6 * (i + 1)), Subs: []float64{float64(1 + i%37)}}
	}
	tu := New(Config{})
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		lo := float64(rng.Intn(4500))
		if err := tu.Observe(Record{Lo: lo, Hi: lo + float64(10+rng.Intn(490)), Observed: float64(rng.Intn(20000))}); err != nil {
			b.Fatal(err)
		}
	}
	base, err := histogram.StoreOfBuckets(bs, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		tu.ApplyTo(base.Clone())
	}
}
