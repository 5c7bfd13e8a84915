package dynahist_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dynahist"
	"dynahist/internal/dist"
)

// TestShardedTotalExact runs seeded random sequences of batch and
// single inserts and deletes of present values, with Snapshot→Restore
// steps, against Sharded engines over each maintained family. After
// every operation Total must be, bit for bit, the sum of ShardTotals
// taken in shard order, and equal the exact dist.Tracker count; View
// must succeed.
func TestShardedTotalExact(t *testing.T) {
	const domain = 1000
	members := []struct {
		name string
		opts []dynahist.Option
		kind dynahist.Kind
	}{
		{"dado", []dynahist.Option{dynahist.WithMemory(512)}, dynahist.KindDADO},
		{"dvo", []dynahist.Option{dynahist.WithMemory(512)}, dynahist.KindDVO},
		{"dc", []dynahist.Option{dynahist.WithMemory(512)}, dynahist.KindDC},
		{"ac", []dynahist.Option{dynahist.WithBuckets(16), dynahist.WithSampleCapacity(200), dynahist.WithSeed(7)}, dynahist.KindAC},
	}
	policies := []dynahist.ShardPolicy{dynahist.ShardByValueHash, dynahist.ShardRoundRobin}
	steps := 400
	if testing.Short() {
		steps = 100
	}
	for _, m := range members {
		for _, policy := range policies {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/policy%d/seed%d", m.name, policy, seed), func(t *testing.T) {
					s, err := dynahist.NewSharded(func() (dynahist.Histogram, error) {
						return dynahist.New(m.kind, m.opts...)
					}, dynahist.WithShards(4), dynahist.WithShardPolicy(policy))
					if err != nil {
						t.Fatal(err)
					}
					runShardedTotal(t, s, domain, seed, steps)
				})
			}
		}
	}
}

func runShardedTotal(t *testing.T, s *dynahist.Sharded, domain int, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := dist.New(domain)
	draw := func() int {
		if rng.Intn(3) == 0 {
			return []int{3, 400, 999}[rng.Intn(3)]
		}
		return rng.Intn(domain + 1)
	}
	present := func() int {
		values, _ := tr.NonZero()
		return values[rng.Intn(len(values))]
	}
	for step := range steps {
		var op string
		switch r := rng.Intn(100); {
		case r < 30 || tr.Total() == 0:
			op = "insert-batch"
			vs := make([]float64, 1+rng.Intn(128))
			for i := range vs {
				v := draw()
				vs[i] = float64(v)
				if err := tr.Insert(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.InsertBatch(vs); err != nil {
				t.Fatalf("step %d: InsertBatch: %v", step, err)
			}
		case r < 50:
			op = "delete-batch"
			vs := make([]float64, 0, 64)
			for n := 1 + rng.Intn(64); len(vs) < n && tr.Total() > 0; {
				v := present()
				vs = append(vs, float64(v))
				if err := tr.Delete(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.DeleteBatch(vs); err != nil {
				t.Fatalf("step %d: DeleteBatch: %v", step, err)
			}
		case r < 70:
			op = "insert"
			v := draw()
			if err := s.Insert(float64(v)); err != nil {
				t.Fatalf("step %d: Insert(%d): %v", step, v, err)
			}
			if err := tr.Insert(v); err != nil {
				t.Fatal(err)
			}
		case r < 95:
			op = "delete"
			v := present()
			if err := s.Delete(float64(v)); err != nil {
				t.Fatalf("step %d: Delete(%d) of a present value: %v", step, v, err)
			}
			if err := tr.Delete(v); err != nil {
				t.Fatal(err)
			}
		default:
			op = "snapshot-restore"
			blob, err := s.Snapshot()
			if err != nil {
				t.Fatalf("step %d: Snapshot: %v", step, err)
			}
			h, err := dynahist.Restore(blob)
			if err != nil {
				t.Fatalf("step %d: Restore: %v", step, err)
			}
			r, ok := h.(*dynahist.Sharded)
			if !ok {
				t.Fatalf("step %d: sharded blob restored as %T", step, h)
			}
			s = r
		}
		sum := 0.0
		for _, st := range s.ShardTotals() {
			sum += st
		}
		if got := s.Total(); got != sum {
			t.Fatalf("step %d (%s): Total() = %v, Σ ShardTotals() = %v", step, op, got, sum)
		}
		if want := float64(tr.Total()); sum != want {
			t.Fatalf("step %d (%s): Total() = %v, model holds %v", step, op, sum, want)
		}
		if _, err := s.View(); err != nil {
			t.Fatalf("step %d (%s): View: %v", step, op, err)
		}
	}
}
