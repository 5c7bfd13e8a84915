// Package experiments reproduces every figure in the paper's
// evaluation (§7 and §8): one runner per figure, each sweeping the
// paper's parameter, averaging the KS statistic over multiple seeded
// runs, and returning the same series the paper plots. The cmd/histbench
// binary prints them as tables; bench_test.go wires each runner to a
// testing.B benchmark.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"dynahist/internal/dist"
	"dynahist/internal/metric"
)

// Options control the fidelity of an experiment run.
type Options struct {
	// Seeds is the number of independent data sets averaged per point
	// (paper: 10).
	Seeds int
	// Points is the data volume per run (paper: 100,000).
	Points int
	// Quick caps Seeds and Points for tests and benchmarks.
	Quick bool
}

// DefaultOptions returns the paper's full-fidelity settings.
func DefaultOptions() Options { return Options{Seeds: 10, Points: 100000} }

// QuickOptions returns reduced settings for tests and benches.
func QuickOptions() Options { return Options{Seeds: 2, Points: 20000, Quick: true} }

func (o Options) normalized() Options {
	if o.Seeds <= 0 {
		o.Seeds = 10
	}
	if o.Points <= 0 {
		o.Points = 100000
	}
	if o.Quick {
		if o.Seeds > 2 {
			o.Seeds = 2
		}
		if o.Points > 20000 {
			o.Points = 20000
		}
	}
	return o
}

// Series is one labelled line of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is the reproduced form of one paper figure.
type Figure struct {
	ID     string // e.g. "fig5"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Runner regenerates one figure.
type Runner func(Options) (Figure, error)

// Registry maps figure IDs to their runners. The IDs match the paper's
// figure numbers plus the §7.3.1 experiment and the two ablations the
// paper discusses in prose.
var Registry = map[string]Runner{
	"fig5":                 Fig5,
	"fig6":                 Fig6,
	"fig7":                 Fig7,
	"fig8":                 Fig8,
	"fig9":                 Fig9,
	"fig10":                Fig10,
	"fig11":                Fig11,
	"fig12":                Fig12,
	"fig13":                Fig13,
	"fig14":                Fig14,
	"fig15":                Fig15,
	"fig16":                Fig16,
	"fig17":                Fig17,
	"fig18":                Fig18,
	"fig19":                Fig19,
	"fig20":                Fig20,
	"fig21":                Fig21,
	"fig22":                Fig22,
	"fig23":                Fig23,
	"sec731":               Sec731,
	"ablation-subbucket":   AblationSubBuckets,
	"ablation-alphamin":    AblationAlphaMin,
	"ablation-subdivision": AblationSubdivision,
	"metric-comparison":    MetricComparison,
	"concurrency":          Concurrency,
	"serving":              Serving,
	"selftune":             SelfTune,
}

// IDs returns the registry keys in stable order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// WriteTable renders the figure as an aligned text table: one row per X
// value, one column per series.
func (f Figure) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", f.ID, f.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "# x = %s, y = %s\n", f.XLabel, f.YLabel); err != nil {
		return err
	}
	if len(f.Series) == 0 {
		_, err := fmt.Fprintln(w, "(no series)")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s", f.XLabel); err != nil {
		return err
	}
	for _, s := range f.Series {
		if _, err := fmt.Fprintf(w, " %14s", s.Label); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i := range f.Series[0].X {
		if _, err := fmt.Fprintf(w, "%-12.4g", f.Series[0].X[i]); err != nil {
			return err
		}
		for _, s := range f.Series {
			if i < len(s.Y) {
				if _, err := fmt.Fprintf(w, " %14.6g", s.Y[i]); err != nil {
					return err
				}
			} else {
				if _, err := fmt.Fprintf(w, " %14s", "-"); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// updater is the common mutation surface of every maintained histogram
// in this repository.
type updater interface {
	Insert(v float64) error
	Delete(v float64) error
	CDF(x float64) float64
}

// algoSpec names one algorithm under test and knows how to build a
// fresh instance for a given seed.
type algoSpec struct {
	name  string
	build func(seed int64) (updater, error)
}

// insertAll streams values into the histogram and the ground-truth
// tracker.
func insertAll(h updater, truth *dist.Tracker, values []int) error {
	for _, v := range values {
		if err := h.Insert(float64(v)); err != nil {
			return err
		}
		if err := truth.Insert(v); err != nil {
			return err
		}
	}
	return nil
}

// ksOf evaluates the KS statistic of the histogram against the truth.
func ksOf(h updater, truth *dist.Tracker) (float64, error) {
	return metric.KS(h.CDF, truth)
}

// mean averages a slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// WriteCSV renders the figure as CSV: header row "x,<label>,...", one
// data row per X value. Labels are quoted via encoding/csv so commas
// and spaces in series names are safe.
func (f Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{f.XLabel}, make([]string, 0, len(f.Series))...)
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	if len(f.Series) > 0 {
		for i := range f.Series[0].X {
			row := make([]string, 0, len(f.Series)+1)
			row = append(row, strconv.FormatFloat(f.Series[0].X[i], 'g', -1, 64))
			for _, s := range f.Series {
				if i < len(s.Y) {
					row = append(row, strconv.FormatFloat(s.Y[i], 'g', -1, 64))
				} else {
					row = append(row, "")
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
