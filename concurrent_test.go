package dynahist_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"dynahist"
)

func TestConcurrentDelegates(t *testing.T) {
	plain := mustNewKind(t, dynahist.KindDC, dynahist.WithMemory(512))
	c := dynahist.NewConcurrent(mustNewKind(t, dynahist.KindDC, dynahist.WithMemory(512)))
	rng := rand.New(rand.NewSource(9))
	for range 5000 {
		v := float64(rng.Intn(1000))
		if err := plain.Insert(v); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.Total(), plain.Total(); got != want {
		t.Fatalf("Total = %v, want %v", got, want)
	}
	for x := 0.0; x <= 1000; x += 50 {
		if got, want := c.CDF(x), plain.CDF(x); got != want {
			t.Fatalf("CDF(%v) = %v, want %v", x, got, want)
		}
	}
	if got, want := c.EstimateRange(100, 500), plain.EstimateRange(100, 500); got != want {
		t.Fatalf("EstimateRange = %v, want %v", got, want)
	}
	if got, want := len(c.Buckets()), len(plain.Buckets()); got != want {
		t.Fatalf("Buckets len = %d, want %d", got, want)
	}
	if err := c.Delete(plain.Buckets()[0].Left); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Total(), plain.Total()-1; got != want {
		t.Fatalf("Total after delete = %v, want %v", got, want)
	}
}

// TestConcurrentRace drives the wrapper from parallel writers,
// deleters and readers; under -race it verifies the locking covers
// every method, including the "reads" that may mutate lazily-cached
// state (AC), and afterwards the total must balance exactly.
func TestConcurrentRace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (dynahist.Histogram, error)
	}{
		{"DC", func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDC, dynahist.WithMemory(512)) }},
		{"DADO", func() (dynahist.Histogram, error) { return dynahist.New(dynahist.KindDADO, dynahist.WithMemory(512)) }},
		{"AC", func() (dynahist.Histogram, error) {
			return dynahist.New(dynahist.KindAC, dynahist.WithMemory(512), dynahist.WithDiskFactor(20), dynahist.WithSeed(1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			c := dynahist.NewConcurrent(h)
			const (
				writers   = 4
				perWriter = 2000
				deletes   = 500
			)
			// Pre-load so deleters always find mass to remove.
			for i := range writers * deletes {
				if err := c.Insert(float64(i % 1000)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for range perWriter {
						if err := c.Insert(float64(rng.Intn(1000))); err != nil {
							t.Error(err)
							return
						}
					}
				}()
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(50 + w)))
					for range deletes {
						if err := c.Delete(float64(rng.Intn(1000))); err != nil {
							t.Error(err)
							return
						}
					}
				}()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range perWriter {
						if tot := c.Total(); tot < 0 {
							t.Error("negative total")
							return
						}
						if cdf := c.CDF(500); cdf < 0 || cdf > 1+1e-9 {
							t.Errorf("CDF out of range: %v", cdf)
							return
						}
						_ = c.EstimateRange(100, 900)
						_ = c.Buckets()
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			want := float64(writers*deletes + writers*perWriter - writers*deletes)
			if got := c.Total(); math.Abs(got-want) > 1e-3 {
				t.Fatalf("Total after race = %v, want %v", got, want)
			}
		})
	}
}
