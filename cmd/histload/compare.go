package main

// histload -compare A.json B.json: each file holds the results of
// repeated runs (one JSON line per workload run, as -out appends them).
// Every end-to-end metric of every workload is compared against the
// regression bound BENCHMARK.json fixes for it.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark() (*benchmarkFile, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// readResults returns the untraced runs in path, by workload.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// verdict flags one workload × metric pair. worse is B's median change
// against A's in the metric's bad direction, as a share of A's median;
// spread is the wider of the two sides' quartile distance over median.
// Following the rule the benchmark is built on: where the spread is
// wider than the bound the pair is unresolved unless every B run beats
// every A run; otherwise it regressed when worse exceeds the bound.
func verdict(a, b []float64, lowerBetter bool, bound float64) (worse, spread float64, flag string) {
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	worse = sign * (bm - am) / math.Abs(am)
	spread = math.Max((a3-a1)/math.Abs(am), (b3-b1)/math.Abs(bm))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && allBetter:
		return worse, spread, "better"
	case spread > bound:
		return worse, spread, "unresolved"
	case worse > bound:
		return worse, spread, "regressed"
	}
	return worse, spread, "ok"
}

func runCompare(pathA, pathB string, out, errOut io.Writer) int {
	bench, err := readBenchmark()
	if err != nil {
		fmt.Fprintf(errOut, "histload: %v\n", err)
		return 1
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(errOut, "histload: %v\n", err)
		return 1
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(errOut, "histload: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%-8s %-22s %-5s %34s %34s %8s %6s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "worse", "spread", "bound", "flag")
	regressed := false
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range bench.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, spread, flag := verdict(va, vb, m.Better == "lower", m.Bound)
			regressed = regressed || flag == "regressed"
			fmt.Fprintf(out, "%-8s %-22s %-5s %34s %34s %7.1f%% %5.1f%% %5.1f%%  %s\n",
				w.name, m.Name, m.Unit, quartileText(va), quartileText(vb), 100*worse, 100*spread, 100*m.Bound, flag)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func quartileText(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}
