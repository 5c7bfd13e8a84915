package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"dynahist"
	"dynahist/internal/dist"
	"dynahist/internal/tuner"
)

// SelfTune measures the internal/tuner feedback loop closing the
// estimation gap a skew shift opens: a maintained DADO ingests a
// workload whose hot region jumps mid-stream (so its borders lag the
// final distribution), then a fixed range-query workload replays for
// several feedback rounds. Each round reports every query's true count
// (from the exact dist.Tracker) back to the tuner, which nudges the
// overlay's counts and borders; the figure records the normalized
// estimation error after each round.
//
// Round 0 is the untuned baseline. The reproducible shape — and the
// gate the tests enforce — is a monotonically non-increasing error
// series: bounded feedback absorption (Alpha of the residual per
// record) may converge slowly, but never moves estimates away from
// the observed truth on a replayed workload.
func SelfTune(o Options) (Figure, error) {
	o = o.normalized()
	const (
		domain = 1000
		rounds = 8
		qWidth = 100
	)

	fig := Figure{
		ID:     "selftune",
		Title:  "Self-tuning feedback: estimation error per round (skew shift)",
		XLabel: "feedback round",
		YLabel: "sum |est-true| / total",
	}

	perRound := make([]float64, rounds+1)
	for seed := 0; seed < o.Seeds; seed++ {
		series, err := selfTuneRun(int64(seed+1), o.Points, domain, rounds, qWidth)
		if err != nil {
			return fig, fmt.Errorf("selftune: seed %d: %w", seed, err)
		}
		for r, e := range series {
			perRound[r] += e
		}
	}
	x := make([]float64, rounds+1)
	y := make([]float64, rounds+1)
	for r := range perRound {
		x[r] = float64(r)
		y[r] = perRound[r] / float64(o.Seeds)
	}
	fig.Series = []Series{{Label: "DADO+feedback", X: x, Y: y}}
	return fig, nil
}

// selfTuneRun executes one seeded workload and returns the error
// series: element r is the normalized error after r feedback rounds
// (element 0 untuned).
func selfTuneRun(seed int64, points, domain, rounds, qWidth int) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	h, err := dynahist.New(dynahist.KindDADO, dynahist.WithMemory(1024))
	if err != nil {
		return nil, err
	}
	est := h.(dynahist.Estimator)
	truth := dist.New(domain)

	// Skew shift: the first 60% of the stream concentrates low, the
	// rest jumps high — the maintained borders spent most of their
	// maintenance budget on a region that has gone cold.
	shift := points * 3 / 5
	for i := 0; i < points; i++ {
		center := 0.25 * float64(domain)
		if i >= shift {
			center = 0.75 * float64(domain)
		}
		v := int(math.Round(rng.NormFloat64()*0.05*float64(domain) + center))
		if v < 0 {
			v = 0
		}
		if v > domain {
			v = domain
		}
		if err := est.Insert(float64(v)); err != nil {
			return nil, err
		}
		if err := truth.Insert(v); err != nil {
			return nil, err
		}
	}

	view, err := est.View()
	if err != nil {
		return nil, err
	}
	st, err := tuner.StoreOfView(view)
	if err != nil {
		return nil, err
	}

	// The replayed workload: disjoint tiles over the whole domain, so
	// every region — hot, cooled, and empty — reports feedback.
	type rangeQ struct{ lo, hi int }
	var qs []rangeQ
	for lo := 0; lo+qWidth-1 <= domain; lo += qWidth {
		qs = append(qs, rangeQ{lo, lo + qWidth - 1})
	}
	errNow := func() float64 {
		s := 0.0
		for _, q := range qs {
			got := tuner.EstimateRange(st, float64(q.lo), float64(q.hi))
			s += math.Abs(got - float64(truth.RangeCount(q.lo, q.hi)))
		}
		return s / float64(truth.Total())
	}

	series := make([]float64, 0, rounds+1)
	series = append(series, errNow())
	for r := 0; r < rounds; r++ {
		// One round = one pass of the workload, each query journaling
		// its feedback and the batch applying onto the evolving
		// overlay — the same per-record bounded adjustment the server
		// applies online.
		t := tuner.New(tuner.Config{})
		for _, q := range qs {
			rec := tuner.Record{
				Lo:        float64(q.lo),
				Hi:        float64(q.hi),
				Estimated: tuner.EstimateRange(st, float64(q.lo), float64(q.hi)),
				Observed:  float64(truth.RangeCount(q.lo, q.hi)),
			}
			if err := t.Observe(rec); err != nil {
				return nil, err
			}
		}
		t.ApplyTo(st)
		series = append(series, errNow())
	}
	return series, nil
}
