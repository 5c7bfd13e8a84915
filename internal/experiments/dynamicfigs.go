package experiments

import (
	"fmt"

	"dynahist/internal/approx"
	"dynahist/internal/core"
	"dynahist/internal/dist"
	"dynahist/internal/distgen"
	"dynahist/internal/histogram"
)

// dynamicAlgos returns the four algorithms of Figs. 5–8 at the given
// memory budget: DC, DADO, AC (20× disk) and DVO.
func dynamicAlgos(memBytes int) []algoSpec {
	return []algoSpec{
		{name: "DC", build: func(seed int64) (updater, error) { return core.NewDCMemory(memBytes) }},
		{name: "DADO", build: func(seed int64) (updater, error) { return core.NewDADOMemory(memBytes) }},
		{name: "AC", build: func(seed int64) (updater, error) {
			return approx.New(memBytes, approx.DefaultDiskFactor, seed)
		}},
		{name: "DVO", build: func(seed int64) (updater, error) { return core.NewDVOMemory(memBytes) }},
	}
}

// sweepKS runs one parameter sweep: for every x it builds the data set
// per seed (via makeCfg), streams it in the order orderValues returns,
// and records the seed-averaged KS per algorithm.
func sweepKS(o Options, id, title, xLabel string, xs []float64,
	makeCfg func(x float64, seed int64) distgen.Config,
	algos func(x float64) []algoSpec,
	orderValues func(values []int, seed int64) []int,
) (Figure, error) {
	o = o.normalized()
	fig := Figure{ID: id, Title: title, XLabel: xLabel, YLabel: "KS statistic"}
	if len(xs) == 0 {
		return fig, fmt.Errorf("experiments: %s has no sweep values", id)
	}
	specs := algos(xs[0])
	results := make([][]float64, len(specs)) // per algo, per x
	for i := range results {
		results[i] = make([]float64, len(xs))
	}
	for xi, x := range xs {
		specs := algos(x)
		perSeed := make([][]float64, len(specs))
		for seed := range o.Seeds {
			cfg := makeCfg(x, int64(seed+1))
			cfg.Points = o.Points
			values, err := distgen.Generate(cfg)
			if err != nil {
				return fig, fmt.Errorf("%s x=%v seed=%d: %w", id, x, seed, err)
			}
			values = orderValues(values, int64(seed+1))
			for ai, spec := range specs {
				h, err := spec.build(int64(seed + 1))
				if err != nil {
					return fig, fmt.Errorf("%s %s: %w", id, spec.name, err)
				}
				truth := dist.New(cfg.Domain)
				if err := insertAll(h, truth, values); err != nil {
					return fig, fmt.Errorf("%s %s: %w", id, spec.name, err)
				}
				ks, err := ksOf(h, truth)
				if err != nil {
					return fig, fmt.Errorf("%s %s: %w", id, spec.name, err)
				}
				perSeed[ai] = append(perSeed[ai], ks)
			}
		}
		for ai := range specs {
			results[ai][xi] = mean(perSeed[ai])
		}
	}
	for ai, spec := range specs {
		fig.Series = append(fig.Series, Series{Label: spec.name, X: xs, Y: results[ai]})
	}
	return fig, nil
}

// referenceCfg is the paper's reference distribution (§7: S=1, Z=1,
// SD=2, C=2000) with the given overrides applied by the callers.
func referenceCfg(seed int64) distgen.Config {
	cfg := distgen.Reference(seed)
	return cfg
}

// Fig5 reproduces Figure 5: KS vs the cluster-center spread skew S
// under random insertions (fixed Z=1, SD=2, M=1KB).
func Fig5(o Options) (Figure, error) {
	return sweepKS(o, "fig5", "KS vs spread skew S (random inserts, Z=1 SD=2 M=1KB)", "S",
		[]float64{0, 0.5, 1, 1.5, 2, 2.5, 3},
		func(x float64, seed int64) distgen.Config {
			cfg := referenceCfg(seed)
			cfg.SpreadSkew = x
			return cfg
		},
		func(float64) []algoSpec { return dynamicAlgos(histogram.KB(1)) },
		distgen.Shuffled,
	)
}

// Fig6 reproduces Figure 6: KS vs the cluster-size skew Z under random
// insertions (fixed S=1, SD=2, M=1KB).
func Fig6(o Options) (Figure, error) {
	return sweepKS(o, "fig6", "KS vs size skew Z (random inserts, S=1 SD=2 M=1KB)", "Z",
		[]float64{0, 0.5, 1, 1.5, 2, 2.5, 3},
		func(x float64, seed int64) distgen.Config {
			cfg := referenceCfg(seed)
			cfg.SizeSkew = x
			return cfg
		},
		func(float64) []algoSpec { return dynamicAlgos(histogram.KB(1)) },
		distgen.Shuffled,
	)
}

// Fig7 reproduces Figure 7: KS vs the within-cluster standard
// deviation SD under random insertions (fixed S=1, Z=1, M=1KB).
func Fig7(o Options) (Figure, error) {
	return sweepKS(o, "fig7", "KS vs cluster SD (random inserts, S=1 Z=1 M=1KB)", "SD",
		[]float64{0, 2, 5, 10, 15, 20},
		func(x float64, seed int64) distgen.Config {
			cfg := referenceCfg(seed)
			cfg.SD = x
			return cfg
		},
		func(float64) []algoSpec { return dynamicAlgos(histogram.KB(1)) },
		distgen.Shuffled,
	)
}

// Fig8 reproduces Figure 8: KS vs available memory under random
// insertions (fixed S=1, Z=1, SD=2).
func Fig8(o Options) (Figure, error) {
	return sweepKS(o, "fig8", "KS vs memory (random inserts, S=1 Z=1 SD=2)", "memory KB",
		[]float64{0.25, 0.5, 1, 2, 3, 4},
		func(x float64, seed int64) distgen.Config { return referenceCfg(seed) },
		func(x float64) []algoSpec { return dynamicAlgos(histogram.KB(x)) },
		distgen.Shuffled,
	)
}

// Fig14 reproduces Figure 14: the AC histogram's sensitivity to its
// backing-sample disk budget, against SC and DADO (fixed Z=1, SD=2,
// C=1000, M=1KB).
func Fig14(o Options) (Figure, error) {
	mem := histogram.KB(1)
	algos := func(float64) []algoSpec {
		specs := []algoSpec{}
		for _, factor := range []int{20, 40, 60} {
			f := factor
			specs = append(specs, algoSpec{
				name:  fmt.Sprintf("AC%dX", f),
				build: func(seed int64) (updater, error) { return approx.New(mem, f, seed) },
			})
		}
		specs = append(specs,
			algoSpec{name: "SC", build: func(seed int64) (updater, error) { return newDeferredStatic(mem) }},
			algoSpec{name: "DADO", build: func(seed int64) (updater, error) { return core.NewDADOMemory(mem) }},
		)
		return specs
	}
	return sweepKS(o, "fig14", "AC disk-space sensitivity (Z=1 SD=2 C=1000 M=1KB)", "S",
		[]float64{0, 0.5, 1, 1.5, 2, 2.5, 3},
		func(x float64, seed int64) distgen.Config {
			cfg := referenceCfg(seed)
			cfg.SpreadSkew = x
			cfg.Clusters = 1000
			return cfg
		},
		algos,
		distgen.Shuffled,
	)
}

// Fig15 reproduces Figure 15: sorted insertions (fixed S=1, SD=2,
// C=2000, M=1KB), sweeping Z.
func Fig15(o Options) (Figure, error) {
	mem := histogram.KB(1)
	algos := func(float64) []algoSpec {
		return []algoSpec{
			{name: "DADO", build: func(seed int64) (updater, error) { return core.NewDADOMemory(mem) }},
			{name: "AC20X", build: func(seed int64) (updater, error) { return approx.New(mem, 20, seed) }},
			{name: "DC", build: func(seed int64) (updater, error) { return core.NewDCMemory(mem) }},
			{name: "DVO", build: func(seed int64) (updater, error) { return core.NewDVOMemory(mem) }},
		}
	}
	return sweepKS(o, "fig15", "Sorted insertions (S=1 SD=2 C=2000 M=1KB)", "Z",
		[]float64{0, 0.5, 1, 1.5, 2, 2.5, 3},
		func(x float64, seed int64) distgen.Config {
			cfg := referenceCfg(seed)
			cfg.SizeSkew = x
			return cfg
		},
		algos,
		func(values []int, seed int64) []int { return distgen.Sorted(values) },
	)
}

// Fig19 reproduces Figure 19: the real-world mail-order trace, KS vs
// memory for AC, DC and DADO. The paper's trace is proprietary, so
// distgen.MailOrder stands in for it: a synthetic trace of the same
// size and domain that keeps the property the figure depends on, far
// more spikes than any affordable histogram has buckets.
func Fig19(o Options) (Figure, error) {
	o = o.normalized()
	fig := Figure{
		ID:     "fig19",
		Title:  "Mail-order trace (synthetic substitute): KS vs memory",
		XLabel: "memory KB",
		YLabel: "KS statistic",
	}
	xs := []float64{0.25, 0.5, 1, 2, 3, 4}
	labels := []string{"AC", "DC", "DADO"}
	results := make([][]float64, len(labels))
	for i := range results {
		results[i] = make([]float64, len(xs))
	}
	for xi, x := range xs {
		mem := histogram.KB(x)
		perSeed := make([][]float64, len(labels))
		for seed := range o.Seeds {
			values := distgen.MailOrder(int64(seed + 1))
			if o.Quick && len(values) > o.Points {
				values = values[:o.Points]
			}
			builders := []func() (updater, error){
				func() (updater, error) { return approx.New(mem, approx.DefaultDiskFactor, int64(seed+1)) },
				func() (updater, error) { return core.NewDCMemory(mem) },
				func() (updater, error) { return core.NewDADOMemory(mem) },
			}
			for ai, build := range builders {
				h, err := build()
				if err != nil {
					return fig, err
				}
				truth := dist.New(distgen.MailOrderDomain)
				if err := insertAll(h, truth, values); err != nil {
					return fig, err
				}
				ks, err := ksOf(h, truth)
				if err != nil {
					return fig, err
				}
				perSeed[ai] = append(perSeed[ai], ks)
			}
		}
		for ai := range labels {
			results[ai][xi] = mean(perSeed[ai])
		}
	}
	for ai, label := range labels {
		fig.Series = append(fig.Series, Series{Label: label, X: xs, Y: results[ai]})
	}
	return fig, nil
}
