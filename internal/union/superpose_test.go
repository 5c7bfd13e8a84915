package union

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dynahist/internal/core"
	"dynahist/internal/distgen"
	"dynahist/internal/histogram"
)

// The sweep in Superpose must reproduce the reference linear scan bit
// for bit: same borders, same interval counts, same errors. These tests
// compare the two with == on every Left, Right and Subs[0].

// shardMember is the part of a core histogram the shard fixtures use.
type shardMember interface {
	Insert(v float64) error
	Buckets() []histogram.Bucket
}

// shardFamilies are the maintained core histograms a shard engine
// holds, each at 1024 bytes per shard.
var shardFamilies = []struct {
	name string
	new  func() (shardMember, error)
}{
	{"dado", func() (shardMember, error) { return core.NewDADOMemory(1024) }},
	{"dvo", func() (shardMember, error) { return core.NewDVOMemory(1024) }},
	{"dc", func() (shardMember, error) { return core.NewDCMemory(1024) }},
}

// stripeHash is the shard engine's SplitMix64 value hash, repeated here
// because the engine itself depends on this package.
func stripeHash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardLists feeds the data set cfg generates, shuffled, into `shards`
// fresh members striped by value hash, and returns the non-empty
// members' bucket lists — what a shard engine's merge superposes.
func shardLists(tb testing.TB, newMember func() (shardMember, error), cfg distgen.Config, shards int) [][]histogram.Bucket {
	tb.Helper()
	values, err := distgen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	members := make([]shardMember, shards)
	for i := range members {
		if members[i], err = newMember(); err != nil {
			tb.Fatal(err)
		}
	}
	for _, v := range distgen.Shuffled(values, cfg.Seed) {
		f := float64(v)
		if err := members[stripeHash(math.Float64bits(f))%uint64(shards)].Insert(f); err != nil {
			tb.Fatal(err)
		}
	}
	var lists [][]histogram.Bucket
	for _, m := range members {
		if bs := m.Buckets(); histogram.TotalCount(bs) > 0 {
			lists = append(lists, bs)
		}
	}
	return lists
}

// randomMembers builds n valid member lists exercising the edge cases
// of border collection: gaps, zero-count sub-buckets, K = 1–4 sub-
// counters, buckets overlapping their predecessor by less than 1e-9,
// and edges a few ULPs from an earlier member's border, which
// dedupeBorders collapses.
func randomMembers(rng *rand.Rand, n int) [][]histogram.Bucket {
	var pool []float64 // every border emitted so far
	members := make([][]histogram.Bucket, n)
	for m := range members {
		want := 2 + rng.Intn(12)
		edges := make([]float64, 0, want)
		for len(edges) < want {
			if len(pool) > 0 && rng.Intn(3) == 0 {
				x := pool[rng.Intn(len(pool))]
				dir := math.Inf(1 - 2*rng.Intn(2))
				for range rng.Intn(4) {
					x = math.Nextafter(x, dir)
				}
				edges = append(edges, x)
				continue
			}
			// An eighth-unit grid, so members also share borders exactly.
			edges = append(edges, math.Round(rng.Float64()*8000)/8-200)
		}
		sort.Float64s(edges)
		edges = slices.Compact(edges)
		if len(edges) < 2 {
			edges = append(edges, edges[0]+1)
		}
		var bs []histogram.Bucket
		for i := 0; i+1 < len(edges); i++ {
			if len(bs) > 0 && rng.Intn(4) == 0 {
				continue // leave a gap
			}
			l, r := edges[i], edges[i+1]
			if len(bs) > 0 && bs[len(bs)-1].Right == l && rng.Intn(4) == 0 {
				l -= rng.Float64() * 9e-10 // overlap the predecessor by < 1e-9
			}
			k := 1 + rng.Intn(4)
			subs := make([]float64, k)
			for j := range subs {
				switch rng.Intn(4) {
				case 0: // zero-count sub-bucket
				case 1:
					subs[j] = rng.Float64() * 10
				default:
					subs[j] = float64(rng.Intn(100))
				}
			}
			b := histogram.Bucket{Left: l, Right: r, Subs: subs}
			pool = append(pool, l, r)
			for j := 1; j < k; j++ {
				pool = append(pool, l+b.Width()*float64(j)/float64(k))
			}
			bs = append(bs, b)
		}
		members[m] = bs
	}
	return members
}

// checkSuperposeMatchesRef fails unless Superpose and refSuperpose
// agree exactly on members.
func checkSuperposeMatchesRef(t *testing.T, members ...[]histogram.Bucket) {
	t.Helper()
	got, gotErr := Superpose(members...)
	want, wantErr := refSuperpose(members...)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error = %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%d buckets, reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Left != w.Left || g.Right != w.Right || len(g.Subs) != 1 || g.Subs[0] != w.Subs[0] {
			t.Fatalf("bucket %d = [%v,%v) %v, reference [%v,%v) %v", i, g.Left, g.Right, g.Subs, w.Left, w.Right, w.Subs)
		}
	}
}

func TestSuperposeMatchesReferenceOnShards(t *testing.T) {
	for _, fam := range shardFamilies {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", fam.name, seed), func(t *testing.T) {
				checkCollectMatchesRef(t, shardLists(t, fam.new, distgen.Reference(seed), 4)...)
			})
		}
	}
}

// TestSuperposeMatchesReferenceOnSites checks fanout's shape: each
// site's shards merged first, then the union of the merged lists.
func TestSuperposeMatchesReferenceOnSites(t *testing.T) {
	for _, fam := range shardFamilies {
		t.Run(fam.name, func(t *testing.T) {
			var sites [][]histogram.Bucket
			for seed := int64(1); seed <= 2; seed++ {
				merged, err := Superpose(shardLists(t, fam.new, distgen.Reference(seed), 4)...)
				if err != nil {
					t.Fatal(err)
				}
				sites = append(sites, merged)
			}
			checkCollectMatchesRef(t, sites...)
		})
	}
}

func TestSuperposeMatchesReferenceOnRandomLists(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range 2000 {
		members := randomMembers(rng, 1+rng.Intn(4))
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkSuperposeMatchesRef(t, members...) })
	}
}

// TestSuperposeMatchesReferenceOnULPCases pins the hand-built border
// cases: a sub-border and a bucket edge one ULP apart, a member whose
// bucket overlaps its predecessor, and a member entirely inside
// another's gap.
func TestSuperposeMatchesReferenceOnULPCases(t *testing.T) {
	ulp := math.Nextafter(1.0, 2)
	checkSuperposeMatchesRef(t,
		[]histogram.Bucket{{Left: 0, Right: 2, Subs: []float64{3, 5}}},
		[]histogram.Bucket{{Left: ulp, Right: 3, Subs: []float64{4}}})
	checkSuperposeMatchesRef(t,
		[]histogram.Bucket{{Left: 0, Right: 10, Subs: []float64{1, 0, 2}}, {Left: 10 - 5e-10, Right: 20, Subs: []float64{4}}},
		[]histogram.Bucket{{Left: 10, Right: 12, Subs: []float64{0}}})
	checkSuperposeMatchesRef(t,
		[]histogram.Bucket{{Left: 0, Right: 5, Subs: []float64{5}}, {Left: 50, Right: 60, Subs: []float64{2, 2}}},
		[]histogram.Bucket{{Left: 20, Right: 30, Subs: []float64{1, 1, 1, 1}}})
}

// FuzzSuperpose feeds up to four serialized member lists to both
// implementations; inputs that do not decode to a bucket list are
// skipped. The corpus is seeded with small random lists, as FuzzReduce
// is: building shard unions from 100k-point data sets under the
// fuzzer's coverage instrumentation stalls every worker.
func FuzzSuperpose(f *testing.F) {
	add := func(lists ...[]histogram.Bucket) {
		var args [4][]byte
		for i, l := range lists[:min(len(lists), 4)] {
			data, err := histogram.MarshalBuckets(l)
			if err != nil {
				f.Fatal(err)
			}
			args[i] = data
		}
		f.Add(args[0], args[1], args[2], args[3])
	}
	rng := rand.New(rand.NewSource(2))
	for range 32 {
		add(randomMembers(rng, 1+rng.Intn(4))...)
	}
	f.Fuzz(func(t *testing.T, a, b, c, d []byte) {
		var members [][]histogram.Bucket
		for _, data := range [][]byte{a, b, c, d} {
			if len(data) == 0 {
				continue
			}
			bs, err := histogram.UnmarshalBuckets(data)
			if err != nil {
				return
			}
			members = append(members, bs)
		}
		checkCollectMatchesRef(t, members...)
	})
}
