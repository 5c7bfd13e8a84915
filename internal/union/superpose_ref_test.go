package union

import (
	"errors"
	"fmt"
	"math"
	"sort"

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
