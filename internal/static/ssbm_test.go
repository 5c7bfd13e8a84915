package static

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynahist/internal/dist"
	"dynahist/internal/distgen"
)

var refBudgets = []int{1, 2, 3, 7, 16, 42, 85, 128, 256}

// checkSSBMMatchesRef asserts that SSBM and refSSBM agree on the error
// and on the bits of every border and counter.
func checkSSBMMatchesRef(t *testing.T, tr *dist.Tracker, n int) {
	t.Helper()
	got, err := SSBM(tr, n)
	want, wantErr := refSSBM(tr, n)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("n=%d: SSBM error %v, reference error %v", n, err, wantErr)
	}
	if err != nil {
		return
	}
	gb, wb := got.Buckets(), want.Buckets()
	if len(gb) != len(wb) {
		t.Fatalf("n=%d: %d buckets, reference has %d", n, len(gb), len(wb))
	}
	for i := range gb {
		g, w := gb[i], wb[i]
		if math.Float64bits(g.Left) != math.Float64bits(w.Left) ||
			math.Float64bits(g.Right) != math.Float64bits(w.Right) ||
			len(g.Subs) != len(w.Subs) {
			t.Fatalf("n=%d bucket %d: [%v,%v) k=%d, reference [%v,%v) k=%d",
				n, i, g.Left, g.Right, len(g.Subs), w.Left, w.Right, len(w.Subs))
		}
		for j := range g.Subs {
			if math.Float64bits(g.Subs[j]) != math.Float64bits(w.Subs[j]) {
				t.Fatalf("n=%d bucket %d sub %d: count %v, reference %v", n, i, j, g.Subs[j], w.Subs[j])
			}
		}
	}
}

// TestSSBMMatchesRef checks SSBM on the shared Reduce pass against the
// dedicated §5 loop, on the paper's reference data and on random
// trackers, across budgets from one bucket to more than the distinct
// values.
func TestSSBMMatchesRef(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := distgen.Reference(seed)
		values, err := distgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := loadTracker(t, cfg.Domain, values)
		t.Run(fmt.Sprintf("reference%d", seed), func(t *testing.T) {
			for _, n := range refBudgets {
				checkSSBMMatchesRef(t, tr, n)
			}
		})
	}
	rng := rand.New(rand.NewSource(1))
	for i := range 200 {
		domain := 1 + rng.Intn(1000)
		values := make([]int, 1+rng.Intn(2000))
		hot := rng.Intn(domain + 1)
		for j := range values {
			if rng.Intn(3) == 0 {
				values[j] = min(domain, hot+rng.Intn(5))
			} else {
				values[j] = rng.Intn(domain + 1)
			}
		}
		tr := loadTracker(t, domain, values)
		t.Run(fmt.Sprint("random", i), func(t *testing.T) {
			for _, n := range refBudgets {
				checkSSBMMatchesRef(t, tr, n)
			}
		})
	}
}

// FuzzSSBM reads each input byte as one inserted value in [0, 255] and
// compares SSBM with refSSBM at the given budget.
func FuzzSSBM(f *testing.F) {
	f.Add([]byte{0, 0, 1, 9, 9, 9, 200, 201, 255}, uint16(3))
	f.Add([]byte{5}, uint16(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 40, 40, 40, 41}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, budget uint16) {
		tr := dist.New(255)
		for _, b := range data {
			if err := tr.Insert(int(b)); err != nil {
				t.Fatal(err)
			}
		}
		checkSSBMMatchesRef(t, tr, int(budget%300))
	})
}
