package union

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dynahist/internal/histogram"
)

// refSuperpose is the per-interval linear scan that Superpose's sweep
// replaced, kept as the reference the sweep is checked against bit for
// bit: borders gathered through two maps, and each interval's mass
// taken as histogram.MassBelow at its upper end minus at its lower end,
// both scanned from bucket 0 — O(intervals × Σ member buckets).
func refSuperpose(members ...[]histogram.Bucket) ([]histogram.Bucket, error) {
	if len(members) == 0 {
		return nil, ErrNoMembers
	}
	borderSet := map[float64]struct{}{}
	primary := map[float64]bool{}
	for _, m := range members {
		if err := histogram.Validate(m); err != nil {
			return nil, fmt.Errorf("union: invalid member: %w", err)
		}
		for i := range m {
			borderSet[m[i].Left] = struct{}{}
			borderSet[m[i].Right] = struct{}{}
			primary[m[i].Left] = true
			primary[m[i].Right] = true
			k := len(m[i].Subs)
			for j := 1; j < k; j++ {
				borderSet[m[i].Left+m[i].Width()*float64(j)/float64(k)] = struct{}{}
			}
		}
	}
	borders := make([]float64, 0, len(borderSet))
	for b := range borderSet {
		borders = append(borders, b)
	}
	sort.Float64s(borders)
	borders = refDedupeBorders(borders, primary)
	if len(borders) < 2 {
		return nil, errors.New("union: members have no extent")
	}

	var out []histogram.Bucket
	for i := 0; i+1 < len(borders); i++ {
		lo, hi := borders[i], borders[i+1]
		mass := 0.0
		for _, m := range members {
			mass += histogram.MassBelow(m, hi) - histogram.MassBelow(m, lo)
		}
		if mass <= 0 {
			continue
		}
		out = append(out, histogram.Bucket{Left: lo, Right: hi, Subs: []float64{mass}})
	}
	if len(out) == 0 {
		return nil, errors.New("union: members are all empty")
	}
	return out, nil
}

// refDedupeBorders is dedupeBorders over the map-based primary set the
// reference collects.
func refDedupeBorders(borders []float64, primary map[float64]bool) []float64 {
	out := borders[:0]
	for i := 0; i < len(borders); {
		anchor := borders[i]
		rep, haveRep := anchor, primary[anchor]
		j := i + 1
		for j < len(borders) {
			b := borders[j]
			scale := math.Max(math.Abs(anchor), math.Abs(b))
			if b-anchor > borderEps*scale {
				break
			}
			if !haveRep && primary[b] {
				rep, haveRep = b, true
			}
			j++
		}
		out = append(out, rep)
		i = j
	}
	return out
}

// refCollectBorders is collectBorders as it was before the k-way
// merge: one global stable sort of the concatenated emission order, an
// exact-duplicate collapse into a stored list, then the anchored
// near-duplicate pass over that list. It is the reference for the
// merge's order, the ±0 bits it keeps and the primary preference.
func refCollectBorders(members [][]histogram.Bucket) []float64 {
	var bs []border
	for _, m := range members {
		for i := range m {
			bs = append(bs, border{m[i].Left, true}, border{m[i].Right, true})
			k := len(m[i].Subs)
			for j := 1; j < k; j++ {
				bs = append(bs, border{m[i].Left + m[i].Width()*float64(j)/float64(k), false})
			}
		}
	}
	slices.SortStableFunc(bs, func(a, b border) int { return cmp.Compare(a.v, b.v) })
	collapsed := bs[:0]
	for _, b := range bs {
		if last := len(collapsed) - 1; last >= 0 && collapsed[last].v == b.v {
			collapsed[last] = border{b.v, collapsed[last].primary || b.primary}
			continue
		}
		collapsed = append(collapsed, b)
	}
	var out []float64
	for i := 0; i < len(collapsed); {
		anchor := collapsed[i].v
		rep, haveRep := anchor, collapsed[i].primary
		j := i + 1
		for j < len(collapsed) {
			b := collapsed[j].v
			scale := math.Max(math.Abs(anchor), math.Abs(b))
			if b-anchor > borderEps*scale {
				break
			}
			if !haveRep && collapsed[j].primary {
				rep, haveRep = b, true
			}
			j++
		}
		out = append(out, rep)
		i = j
	}
	return out
}

// checkCollectMatchesRef fails unless collectBorders and
// refCollectBorders agree on every border's bits, and Superpose agrees
// with refSuperpose.
func checkCollectMatchesRef(t *testing.T, members ...[]histogram.Bucket) {
	t.Helper()
	got, want := collectBorders(members), refCollectBorders(members)
	if len(got) != len(want) {
		t.Fatalf("%d borders, reference %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("border %d = %v, reference %v", i, got[i], want[i])
		}
	}
	checkSuperposeMatchesRef(t, members...)
}

func TestCollectBordersMatchesRefOnRandomLists(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := range 2000 {
		members := randomMembers(rng, 1+rng.Intn(8))
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkCollectMatchesRef(t, members...) })
	}
}

// TestCollectBordersKWayCases pins the cases where the merge order is
// observable: ±0 borders from different members (the last copy's sign
// survives), a border every member shares (one primary border), and a
// bucket overlapping its predecessor by ≤1e-9, which puts the
// predecessor's sub-borders and Right behind the bucket's own Left in
// emission order.
func TestCollectBordersKWayCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	b := func(l, r float64, subs ...float64) histogram.Bucket {
		return histogram.Bucket{Left: l, Right: r, Subs: subs}
	}
	t.Run("signed zeros", func(t *testing.T) {
		checkCollectMatchesRef(t,
			[]histogram.Bucket{b(-4, 0, 1, 2)},
			[]histogram.Bucket{b(negZero, 4, 3)},
			[]histogram.Bucket{b(-2, negZero, 1), b(0, 2, 1, 1)},
			[]histogram.Bucket{b(-8, -4, 2, 2, 2, 2), b(-4, 4, 5, 0)})
		// Within one member: a Right of -0 then a Left of +0.
		checkCollectMatchesRef(t,
			[]histogram.Bucket{b(-2, 0, 1, 1)},
			[]histogram.Bucket{b(-2, negZero, 1), b(0, 2, 1)})
		checkCollectMatchesRef(t,
			[]histogram.Bucket{b(negZero, 1, 1)},
			[]histogram.Bucket{b(0, 1, 1)})
		checkCollectMatchesRef(t,
			[]histogram.Bucket{b(0, 1, 1)},
			[]histogram.Bucket{b(negZero, 1, 1)})
	})
	t.Run("shared by every member", func(t *testing.T) {
		var members [][]histogram.Bucket
		for m := range 6 {
			k := 1 + m%4
			members = append(members, []histogram.Bucket{
				b(float64(-m), 10, make([]float64, k)...),
				b(10, float64(12+m), append(make([]float64, k-1), 3)...),
			})
		}
		members[0][0].Subs[0] = 1
		checkCollectMatchesRef(t, members...)
	})
	t.Run("overlap behind predecessor", func(t *testing.T) {
		checkCollectMatchesRef(t,
			[]histogram.Bucket{b(0, 10, 1, 2, 3, 4), b(10-9e-10, 20, 5, 6), b(20-5e-10, 30, 7)},
			[]histogram.Bucket{b(5, 10, 1), b(10-1e-10, 20, 1, 1, 1)},
			[]histogram.Bucket{b(10-9e-10, 10+9e-10, 2, 2)})
	})
}
