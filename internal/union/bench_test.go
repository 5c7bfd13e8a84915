package union

import (
	"testing"

	"dynahist/internal/distgen"
	"dynahist/internal/histogram"
)

func benchMembers(b *testing.B) [][]histogram.Bucket {
	b.Helper()
	var members [][]histogram.Bucket
	for s := range 8 {
		var m []histogram.Bucket
		for i := range 64 {
			l := float64(s*40 + i*10)
			m = append(m, histogram.Bucket{Left: l, Right: l + 10, Subs: []float64{float64(i%7 + 1)}})
		}
		members = append(members, m)
	}
	return members
}

func BenchmarkSuperpose(b *testing.B) {
	members := benchMembers(b)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := Superpose(members...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReduce(b *testing.B) {
	members := benchMembers(b)
	u, err := Superpose(members...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := Reduce(u, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// fanoutLists returns the shard lists a two-site fanout read
// superposes: 8 DADO shards at 1 KB each over 200k points of the
// reference data set.
func fanoutLists(tb testing.TB) [][]histogram.Bucket {
	tb.Helper()
	cfg := distgen.Reference(1)
	cfg.Points = 200_000
	return shardLists(tb, shardFamilies[0].new, cfg, 8)
}

// BenchmarkSuperposeFanout superposes what a two-site fanout read
// superposes.
func BenchmarkSuperposeFanout(b *testing.B) {
	benchSuperpose(b, fanoutLists(b))
}

// BenchmarkSuperposeShards4 superposes what a sharded merge does: 4
// DADO shards at 1 KB each over the reference data set.
func BenchmarkSuperposeShards4(b *testing.B) {
	benchSuperpose(b, shardLists(b, shardFamilies[0].new, distgen.Reference(1), 4))
}

func benchSuperpose(b *testing.B, members [][]histogram.Bucket) {
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := Superpose(members...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceFanout reduces what a two-site fanout read reduces:
// the union of fanoutLists, brought down to 256 buckets.
func BenchmarkReduceFanout(b *testing.B) {
	u, err := Superpose(fanoutLists(b)...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := Reduce(u, 256); err != nil {
			b.Fatal(err)
		}
	}
}
