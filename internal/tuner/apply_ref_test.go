package tuner

import (
	"math"

	"dynahist/internal/histogram"
)

// refApplyTo is the journal replay as it was before adjust and
// nudgeBorder located buckets by binary search: adjust scans every
// bucket from bucket 0 for the predicate's overlap, and nudgeBorder
// asks Store.Find, whose grid index each border move invalidates. It
// is the reference ApplyTo is checked against bit for bit; the shared
// helpers (containedSpan, applyShare, rebinPair) locate nothing.
func refApplyTo(t *Tuner, st *histogram.Store) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range t.journal {
		refAdjust(st, rec, t.cfg)
	}
}

func refAdjust(st *histogram.Store, rec Record, cfg Config) {
	lo, hi := rec.Lo, rec.Hi+1
	est := st.MassBelowAll(hi) - st.MassBelowAll(lo)
	errv := rec.Observed - est
	if math.Abs(errv) <= 1e-9*(1+rec.Observed) {
		return
	}
	n := st.Len()
	first, last := -1, -1
	sumContM, sumContW, sumAllM, sumAllW := 0.0, 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		if st.Right(i) <= lo {
			continue
		}
		if st.Left(i) >= hi {
			break
		}
		if first < 0 {
			first = i
		}
		last = i
		m, w := containedSpan(st, i, lo, hi)
		sumContM += m
		sumContW += w
		sumAllM += st.Mass(i, lo, hi)
		sumAllW += math.Min(st.Right(i), hi) - math.Max(st.Left(i), lo)
	}
	if first < 0 {
		return
	}
	containedOnly, useMass, sumw := true, true, sumContM
	switch {
	case sumContM > massEps:
	case sumContW > massEps:
		useMass, sumw = false, sumContW
	case sumAllM > massEps:
		containedOnly, sumw = false, sumAllM
	case sumAllW > massEps:
		containedOnly, useMass, sumw = false, false, sumAllW
	default:
		return
	}
	delta := cfg.Alpha * errv
	for i := first; i <= last; i++ {
		var w float64
		switch {
		case containedOnly && useMass:
			w, _ = containedSpan(st, i, lo, hi)
		case containedOnly:
			_, w = containedSpan(st, i, lo, hi)
		case useMass:
			w = st.Mass(i, lo, hi)
		default:
			w = math.Min(st.Right(i), hi) - math.Max(st.Left(i), lo)
		}
		if share := delta * w / sumw; share != 0 {
			applyShare(st, i, lo, hi, share, containedOnly, cfg)
		}
	}
	refNudgeBorder(st, lo, cfg)
	refNudgeBorder(st, hi, cfg)
}

func refNudgeBorder(st *histogram.Store, b float64, cfg Config) {
	i := st.Find(b)
	if i < 0 {
		return
	}
	left, right := st.Left(i), st.Right(i)
	if !(b > left && b < right) {
		return
	}
	if b-left <= right-b {
		if i == 0 || math.Abs(st.Right(i-1)-left) > 1e-9 {
			return
		}
		step := cfg.BorderStep * (b - left)
		if lim := cfg.MaxBorderFrac * math.Min(st.Width(i-1), st.Width(i)); step > lim {
			step = lim
		}
		if step <= 0 {
			return
		}
		rebinPair(st, i-1, i, left+step)
		return
	}
	if i+1 >= st.Len() || math.Abs(st.Left(i+1)-right) > 1e-9 {
		return
	}
	step := cfg.BorderStep * (right - b)
	if lim := cfg.MaxBorderFrac * math.Min(st.Width(i), st.Width(i+1)); step > lim {
		step = lim
	}
	if step <= 0 {
		return
	}
	rebinPair(st, i, i+1, right-step)
}
