package union

import (
	"math"
	"math/rand"
	"testing"

	"dynahist/internal/distgen"
	"dynahist/internal/histogram"
)

// Reduce's split-array heap must reproduce the container/heap
// reference bit for bit: the same pop order among tied costs, so the
// same merges, borders and counters. These tests compare the two with
// Float64bits on every Left, Right and counter.

// randomReduceInput builds a valid bucket list of 1–40 buckets that
// is heavy in cost ties: runs of equal width and equal density (whose
// merged cost clamps to 0), zero-mass buckets, gaps between buckets,
// and k = 1–3 sub-counters per bucket.
func randomReduceInput(rng *rand.Rand) []histogram.Bucket {
	d := 1 + rng.Intn(40)
	out := make([]histogram.Bucket, 0, d)
	x := float64(rng.Intn(100)) - 50
	for len(out) < d {
		if rng.Intn(5) == 0 {
			x += float64(1 + rng.Intn(8)) // a zero-mass gap
		}
		w := float64(1 + rng.Intn(4))
		if rng.Intn(4) == 0 {
			w = rng.Float64()*3 + 0.25
		}
		k := 1 + rng.Intn(3)
		var dens float64
		switch rng.Intn(4) {
		case 0: // zero-mass bucket
		case 1:
			dens = rng.Float64() * 10
		default:
			dens = float64(rng.Intn(4))
		}
		run := 1
		if rng.Intn(3) == 0 {
			run = 2 + rng.Intn(6) // an equal-density run
		}
		for r := 0; r < run && len(out) < d; r++ {
			subs := make([]float64, k)
			for j := range subs {
				subs[j] = dens * w / float64(k)
			}
			out = append(out, histogram.Bucket{Left: x, Right: x + w, Subs: subs})
			x += w
		}
	}
	return out
}

// overflowReduceInput builds 2–40 unit-width buckets, some with a
// count of MaxFloat64/k for k = 1–4 and the rest with a small integer
// count. Validate accepts such finite counts, but a group's mass or
// Σ len·density² overflows to +Inf once a few of them merge, and the
// merged cost Inf − Inf is NaN. NaN compares false both ways, so the
// costs are no longer totally ordered, and only a heap that makes
// container/heap's exact comparisons keeps the reference's merge order.
func overflowReduceInput(rng *rand.Rand) []histogram.Bucket {
	counts := make([]float64, 2+rng.Intn(39))
	for i := range counts {
		counts[i] = float64(rng.Intn(5))
		if rng.Intn(3) == 0 {
			counts[i] = math.MaxFloat64 / float64(1+rng.Intn(4))
		}
	}
	return unitBuckets(counts)
}

// overflowReduceCase is a six-bucket overflowReduceInput on which a
// pop that assumes totally ordered costs (sifting the hole to a leaf,
// then the last entry back up) leaves the reference's merge order at
// budget 2.
func overflowReduceCase() []histogram.Bucket {
	return unitBuckets([]float64{math.MaxFloat64 / 2, 4, math.MaxFloat64, 3, 2, 1})
}

// unitBuckets returns the buckets [i, i+1) with the given counts.
func unitBuckets(counts []float64) []histogram.Bucket {
	out := make([]histogram.Bucket, len(counts))
	for i, c := range counts {
		out[i] = histogram.Bucket{Left: float64(i), Right: float64(i + 1), Subs: []float64{c}}
	}
	return out
}

// ssbmReduceInput builds what static.SSBM reduces: the unit-width
// singletons [v, v+1) of 50–300 distinct integers, some runs adjacent
// and some apart, with counts 1–4, so that many merged costs tie and
// the tie order decides the merges.
func ssbmReduceInput(rng *rand.Rand) []histogram.Bucket {
	d := 50 + rng.Intn(251)
	out := make([]histogram.Bucket, d)
	v := 0
	for i := range out {
		if rng.Intn(4) == 0 {
			v += 1 + rng.Intn(3) // values absent from the data
		}
		out[i] = histogram.Bucket{Left: float64(v), Right: float64(v + 1), Subs: []float64{float64(1 + rng.Intn(4))}}
		v++
	}
	return out
}

// checkReduceMatchesRef fails unless Reduce and refReduce agree
// exactly on buckets at budget n.
func checkReduceMatchesRef(t *testing.T, buckets []histogram.Bucket, n int) {
	t.Helper()
	got, gotErr := Reduce(buckets, n)
	want, wantErr := refReduce(buckets, n)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("n=%d: error = %v, reference %v", n, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("n=%d: %d buckets, reference %d", n, len(got), len(want))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want {
		g, w := got[i], want[i]
		ok := same(g.Left, w.Left) && same(g.Right, w.Right) && len(g.Subs) == len(w.Subs)
		for j := 0; ok && j < len(w.Subs); j++ {
			ok = same(g.Subs[j], w.Subs[j])
		}
		if !ok {
			t.Fatalf("n=%d: bucket %d = [%v,%v) %v, reference [%v,%v) %v", n, i, g.Left, g.Right, g.Subs, w.Left, w.Right, w.Subs)
		}
	}
}

func TestReduceMatchesRef(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for range 1000 {
			bs := randomReduceInput(rng)
			for n := 1; n <= len(bs); n++ {
				checkReduceMatchesRef(t, bs, n)
			}
		}
	})
	t.Run("uniform", func(t *testing.T) {
		// Every pair ties at cost 0, so the pop order alone decides
		// which buckets merge.
		bs := make([]histogram.Bucket, 64)
		for i := range bs {
			bs[i] = histogram.Bucket{Left: float64(i), Right: float64(i + 1), Subs: []float64{3}}
		}
		for n := 1; n <= len(bs); n++ {
			checkReduceMatchesRef(t, bs, n)
		}
	})
	t.Run("overflow", func(t *testing.T) {
		bs := overflowReduceCase()
		for n := 1; n <= len(bs); n++ {
			checkReduceMatchesRef(t, bs, n)
		}
		rng := rand.New(rand.NewSource(3))
		for range 2000 {
			bs := overflowReduceInput(rng)
			for n := 1; n <= len(bs); n++ {
				checkReduceMatchesRef(t, bs, n)
			}
		}
	})
	t.Run("ssbm", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for range 20 {
			bs := ssbmReduceInput(rng)
			for n := 1; n <= len(bs); n++ {
				checkReduceMatchesRef(t, bs, n)
			}
		}
	})
	t.Run("fanout", func(t *testing.T) {
		// BenchmarkReduceFanout's union, at every budget.
		u, err := Superpose(fanoutLists(t)...)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= len(u); n++ {
			checkReduceMatchesRef(t, u, n)
		}
	})
	for _, fam := range shardFamilies {
		t.Run(fam.name, func(t *testing.T) {
			u, err := Superpose(shardLists(t, fam.new, distgen.Reference(1), 4)...)
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= len(u); n += 1 + n/16 {
				checkReduceMatchesRef(t, u, n)
			}
		})
	}
	t.Run("errors", func(t *testing.T) {
		bs := []histogram.Bucket{{Left: 0, Right: 1, Subs: []float64{1}}}
		checkReduceMatchesRef(t, bs, 0)
		checkReduceMatchesRef(t, []histogram.Bucket{{Left: 1, Right: 0, Subs: []float64{1}}}, 1)
		checkReduceMatchesRef(t, nil, 1)
	})
}

// FuzzReduce feeds a serialized bucket list and a budget to both
// implementations; inputs that do not decode to a bucket list are
// skipped. The corpus is seeded with the random tie-heavy lists above
// and one list whose merged costs overflow to NaN; the shard unions
// stay out of it, because building them under the fuzzer's coverage
// instrumentation stalls every worker.
func FuzzReduce(f *testing.F) {
	add := func(bs []histogram.Bucket, n int) {
		data, err := histogram.MarshalBuckets(bs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint16(n))
	}
	rng := rand.New(rand.NewSource(2))
	for range 16 {
		bs := randomReduceInput(rng)
		add(bs, 1+rng.Intn(len(bs)))
	}
	add(overflowReduceCase(), 2)
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		bs, err := histogram.UnmarshalBuckets(data)
		if err != nil {
			return
		}
		checkReduceMatchesRef(t, bs, int(n))
	})
}
