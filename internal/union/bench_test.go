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

// BenchmarkReduceFanout reduces what a two-site fanout read reduces:
// the union of 8 DADO shards at 1 KB each over 200k points of the
// reference data set, brought down to 256 buckets.
func BenchmarkReduceFanout(b *testing.B) {
	cfg := distgen.Reference(1)
	cfg.Points = 200_000
	u, err := Superpose(shardLists(b, shardFamilies[0].new, cfg, 8)...)
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
