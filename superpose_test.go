package dynahist_test

import (
	"errors"
	"math"
	"testing"

	"dynahist"
	"dynahist/internal/distgen"
	"dynahist/internal/union"
)

// restoredSite builds a 4-shard DADO (1 KB per shard) over the
// reference data set for seed, with opts, and returns it after a
// Snapshot→Restore round trip, as a fanout read sees each site.
func restoredSite(t *testing.T, seed int64, opts ...dynahist.ShardOption) *dynahist.Sharded {
	t.Helper()
	values, err := distgen.Generate(distgen.Reference(seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
		return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	}, append([]dynahist.ShardOption{dynahist.WithShards(4)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]float64, len(values))
	for i, v := range distgen.Shuffled(values, seed) {
		vs[i] = float64(v)
	}
	if err := s.InsertBatch(vs); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	h, err := dynahist.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	return h.(*dynahist.Sharded)
}

// viewOf wraps a bucket list as a histogram whose Buckets are exactly
// bs, the way a member's merged view enters Superpose.
func viewOf(t *testing.T, bs []dynahist.Bucket) dynahist.Histogram {
	t.Helper()
	h, err := dynahist.NewStaticFromBuckets(bs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func sameBuckets(a, b []dynahist.Bucket) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		if !same(a[i].Left, b[i].Left) || !same(a[i].Right, b[i].Right) || len(a[i].Counters) != len(b[i].Counters) {
			return false
		}
		for j := range a[i].Counters {
			if !same(a[i].Counters[j], b[i].Counters[j]) {
				return false
			}
		}
	}
	return true
}

// TestSuperposeShardedOnePass: Superpose takes a budget-free Sharded
// member's shard lists straight into one union. That union must match
// the two-level one (each site's merged view, then the union of the
// views) in interval count and, to 1e-12 relative, in cumulative mass
// at every border, and no member may merge on the way.
func TestSuperposeShardedOnePass(t *testing.T) {
	a, b := restoredSite(t, 1), restoredSite(t, 2)
	one, err := dynahist.Superpose(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.Merges() != 0 || b.Merges() != 0 {
		t.Fatalf("members merged %d and %d times, want 0", a.Merges(), b.Merges())
	}
	two, err := dynahist.Superpose(viewOf(t, a.Buckets()), viewOf(t, b.Buckets()))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(two) {
		t.Fatalf("one-pass union has %d intervals, two-level %d", len(one), len(two))
	}
	var massOne, massTwo float64
	for i := range one {
		for _, x := range [][2]float64{{one[i].Left, two[i].Left}, {one[i].Right, two[i].Right}} {
			if math.Abs(x[0]-x[1]) > 1e-12*math.Abs(x[1]) {
				t.Fatalf("interval %d: border %v, two-level %v", i, x[0], x[1])
			}
		}
		massOne += one[i].Count()
		massTwo += two[i].Count()
		if d := math.Abs(massOne - massTwo); d > 1e-12*massTwo {
			t.Fatalf("mass below border %d: %v, two-level %v", i, massOne, massTwo)
		}
	}

	t.Run("merge budget", func(t *testing.T) {
		c := restoredSite(t, 3, dynahist.WithMergeBudget(64))
		got, err := dynahist.Superpose(c, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dynahist.Superpose(viewOf(t, c.Buckets()), b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBuckets(got, want) {
			t.Fatal("a budgeted member's union differs from the union of its Buckets")
		}
	})

	t.Run("empty", func(t *testing.T) {
		empty, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
			return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
		}, dynahist.WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		got, err := dynahist.Superpose(empty, a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dynahist.Superpose(a)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBuckets(got, want) {
			t.Fatal("an empty Sharded member changed the union")
		}
		// Every member empty: the error of superposing one empty
		// merged view, never ErrNoMembers.
		_, err = dynahist.Superpose(empty, empty)
		_, wantErr := union.Superpose(nil)
		if err == nil || errors.Is(err, union.ErrNoMembers) || err.Error() != wantErr.Error() {
			t.Fatalf("all-empty union: error %v, want %v", err, wantErr)
		}
	})
}
