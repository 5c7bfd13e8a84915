package union

import (
	"math"
	"testing"
	"testing/quick"

	"dynahist/internal/histogram"
)

func TestSuperposeErrors(t *testing.T) {
	if _, err := Superpose(); err == nil {
		t.Error("no members: want error")
	}
	bad := []histogram.Bucket{{Left: 5, Right: 1, Subs: []float64{1}}}
	if _, err := Superpose(bad); err == nil {
		t.Error("invalid member: want error")
	}
	empty := []histogram.Bucket{{Left: 0, Right: 1, Subs: []float64{0}}}
	if _, err := Superpose(empty); err == nil {
		t.Error("all-empty members: want error")
	}
}

func TestSuperposeIsLossless(t *testing.T) {
	// The union CDF must equal the weighted sum of member CDFs at every
	// point (paper §8: "this process does not involve any loss of
	// information").
	m1 := []histogram.Bucket{
		{Left: 0, Right: 10, Subs: []float64{4, 6}},
		{Left: 10, Right: 20, Subs: []float64{10}},
	}
	m2 := []histogram.Bucket{
		{Left: 5, Right: 15, Subs: []float64{8}},
		{Left: 30, Right: 40, Subs: []float64{2}},
	}
	u, err := Superpose(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := histogram.Validate(u); err != nil {
		t.Fatal(err)
	}
	total := histogram.TotalCount(u)
	if math.Abs(total-30) > 1e-9 {
		t.Fatalf("union mass %v, want 30", total)
	}
	for x := -1.0; x <= 45; x += 0.25 {
		want := histogram.MassBelow(m1, x) + histogram.MassBelow(m2, x)
		got := histogram.MassBelow(u, x)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("superposition lossy at %v: %v vs %v", x, got, want)
		}
	}
}

func TestSuperposePreservesGaps(t *testing.T) {
	m1 := []histogram.Bucket{{Left: 0, Right: 5, Subs: []float64{5}}}
	m2 := []histogram.Bucket{{Left: 100, Right: 105, Subs: []float64{5}}}
	u, err := Superpose(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range u {
		if b.Left >= 5 && b.Right <= 100 {
			t.Errorf("zero-mass gap bucket [%v,%v) should have been dropped", b.Left, b.Right)
		}
	}
}

func TestReduceBudget(t *testing.T) {
	var members [][]histogram.Bucket
	for s := range 4 {
		var m []histogram.Bucket
		for i := range 10 {
			l := float64(s*100 + i*10)
			m = append(m, histogram.Bucket{Left: l, Right: l + 10, Subs: []float64{float64(i + 1)}})
		}
		members = append(members, m)
	}
	u, err := Superpose(members...)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Reduce(u, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 8 {
		t.Fatalf("reduced to %d buckets, want 8", len(r))
	}
	if math.Abs(histogram.TotalCount(r)-histogram.TotalCount(u)) > 1e-9 {
		t.Fatal("reduce lost mass")
	}
	if err := histogram.Validate(r); err != nil {
		t.Fatal(err)
	}
	// Reducing to a budget ≥ current count is a no-op copy.
	same, err := Reduce(u, len(u)+5)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != len(u) {
		t.Fatal("over-budget reduce should keep all buckets")
	}
	if _, err := Reduce(u, 0); err == nil {
		t.Error("budget 0: want error")
	}
}

func TestReducePrefersSimilarNeighbours(t *testing.T) {
	// Three buckets: two identical densities and one very different;
	// reducing to 2 must merge the identical pair.
	u := []histogram.Bucket{
		{Left: 0, Right: 10, Subs: []float64{10}},
		{Left: 10, Right: 20, Subs: []float64{10}},
		{Left: 20, Right: 30, Subs: []float64{500}},
	}
	r, err := Reduce(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 2 {
		t.Fatalf("got %d buckets", len(r))
	}
	if r[0].Right != 20 || math.Abs(r[0].Count()-20) > 1e-9 {
		t.Errorf("expected [0,20) merged pair, got [%v,%v) count %v", r[0].Left, r[0].Right, r[0].Count())
	}
}

func TestGenerateSitesBasics(t *testing.T) {
	cfg := DefaultSites(1)
	cfg.TotalPoints = 5000
	sites, all, err := GenerateSites(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != cfg.Sites {
		t.Fatalf("got %d sites", len(sites))
	}
	var sum int64
	for _, s := range sites {
		sum += s.Total()
	}
	if sum != int64(cfg.TotalPoints) || all.Total() != int64(cfg.TotalPoints) {
		t.Fatalf("site totals %d / union %d, want %d", sum, all.Total(), cfg.TotalPoints)
	}
}

func TestGenerateSitesValidation(t *testing.T) {
	bad := []SitesConfig{
		{Sites: 0, TotalPoints: 10, Domain: 10, DistinctPerSite: 1},
		{Sites: 5, TotalPoints: 2, Domain: 10, DistinctPerSite: 1},
		{Sites: 2, TotalPoints: 10, Domain: 0, DistinctPerSite: 1},
		{Sites: 2, TotalPoints: 10, Domain: 10, DistinctPerSite: 0},
	}
	for i, cfg := range bad {
		if _, _, err := GenerateSites(cfg); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
}

func TestGenerateSitesZSiteSkew(t *testing.T) {
	cfg := DefaultSites(2)
	cfg.TotalPoints = 10000
	cfg.ZSite = 3
	sites, _, err := GenerateSites(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var max int64
	for _, s := range sites {
		if s.Total() > max {
			max = s.Total()
		}
	}
	if float64(max) < 0.5*float64(cfg.TotalPoints) {
		t.Errorf("ZSite=3: largest site %d of %d, want > half", max, cfg.TotalPoints)
	}
}

// Property: superposition of arbitrary valid members conserves mass.
func TestSuperposeMassProperty(t *testing.T) {
	f := func(counts []uint8) bool {
		if len(counts) < 2 {
			return true
		}
		if len(counts) > 24 {
			counts = counts[:24]
		}
		half := len(counts) / 2
		mk := func(cs []uint8, offset float64) []histogram.Bucket {
			var m []histogram.Bucket
			for i, c := range cs {
				l := offset + float64(i*7)
				m = append(m, histogram.Bucket{Left: l, Right: l + 7, Subs: []float64{float64(c)}})
			}
			return m
		}
		m1, m2 := mk(counts[:half], 0), mk(counts[half:], 3)
		want := histogram.TotalCount(m1) + histogram.TotalCount(m2)
		if want == 0 {
			return true
		}
		u, err := Superpose(m1, m2)
		if err != nil {
			return false
		}
		return math.Abs(histogram.TotalCount(u)-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Reduce conserves mass for any budget.
func TestReduceMassProperty(t *testing.T) {
	f := func(counts []uint8, budgetPick uint8) bool {
		if len(counts) < 2 {
			return true
		}
		if len(counts) > 40 {
			counts = counts[:40]
		}
		var buckets []histogram.Bucket
		for i, c := range counts {
			l := float64(i * 5)
			buckets = append(buckets, histogram.Bucket{Left: l, Right: l + 5, Subs: []float64{float64(c)}})
		}
		budget := int(budgetPick)%len(counts) + 1
		r, err := Reduce(buckets, budget)
		if err != nil {
			return false
		}
		if len(r) > budget {
			return false
		}
		if histogram.Validate(r) != nil {
			return false
		}
		return math.Abs(histogram.TotalCount(r)-histogram.TotalCount(buckets)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCDFOfEmpty(t *testing.T) {
	cdf := CDFOf(nil)
	if cdf(100) != 0 {
		t.Error("empty CDF should be 0")
	}
	cdf = CDFOf([]histogram.Bucket{{Left: 0, Right: 1, Subs: []float64{0}}})
	if cdf(5) != 0 {
		t.Error("zero-mass CDF should be 0")
	}
}

func TestSuperposeKeepsSubBucketDetail(t *testing.T) {
	// A DADO-style member with an uneven sub-bucket profile must keep
	// that profile through superposition (lossless claim includes
	// sub-bucket borders).
	m := []histogram.Bucket{{Left: 0, Right: 10, Subs: []float64{8, 2}}}
	u, err := Superpose(m)
	if err != nil {
		t.Fatal(err)
	}
	// Mass below the sub-border must be preserved exactly.
	if got := histogram.MassBelow(u, 5); math.Abs(got-8) > 1e-9 {
		t.Errorf("mass below sub-border = %v, want 8", got)
	}
}

func TestSuperposeDedupesULPBorders(t *testing.T) {
	// The same logical border computed from two members can differ in
	// the last bit: member 1's sub-border is exactly 1.0 (computed as
	// Left + Width·1/2), member 2's bucket edge sits one ULP above it.
	// Without relative-epsilon deduplication the superposition keeps
	// both and emits a one-ULP sliver bucket.
	ulpAbove := math.Nextafter(1.0, 2)
	m1 := []histogram.Bucket{{Left: 0, Right: 2, Subs: []float64{3, 5}}}
	m2 := []histogram.Bucket{{Left: ulpAbove, Right: 3, Subs: []float64{4}}}
	u, err := Superpose(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := histogram.Validate(u); err != nil {
		t.Fatal(err)
	}
	for i := range u {
		w := u[i].Width()
		scale := math.Max(math.Abs(u[i].Left), math.Abs(u[i].Right))
		if w <= 16*borderEps*scale {
			t.Errorf("bucket %d [%v,%v) is a %.3g-wide sliver", i, u[i].Left, u[i].Right, w)
		}
	}
	// The member's real bucket edge (the primary border) must survive
	// bit-exactly; the recomputed sub-border is the one that yields.
	found := false
	for i := range u {
		if u[i].Left == ulpAbove || u[i].Right == ulpAbove {
			found = true
		}
	}
	if !found {
		t.Errorf("primary border %v did not survive deduplication: %+v", ulpAbove, u)
	}
	// Deduplication must not cost mass: the union still carries the
	// members' combined total.
	if total := histogram.TotalCount(u); math.Abs(total-12) > 1e-9 {
		t.Errorf("union mass %v, want 12", total)
	}
}

// dedupeBorders runs a sorted list of distinct borders through
// borderDedupe.
func dedupeBorders(bs []border) []float64 {
	var d borderDedupe
	for _, b := range bs {
		d.add(b)
	}
	return d.borders()
}

func TestDedupeBordersPrefersPrimary(t *testing.T) {
	a := 1000.0
	b := math.Nextafter(a, 2000)
	got := dedupeBorders([]border{{0, true}, {a, false}, {b, true}, {2000, true}})
	want := []float64{0, b, 2000}
	if len(got) != len(want) {
		t.Fatalf("dedupeBorders = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedupeBorders = %v, want %v", got, want)
		}
	}
	// Distinct borders far apart are untouched.
	keep := []border{{0, false}, {0.5, false}, {1, false}}
	if got := dedupeBorders(keep); len(got) != 3 {
		t.Fatalf("dedupeBorders merged genuinely distinct borders: %v", got)
	}
}
