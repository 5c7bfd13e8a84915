// Command histload is the end-to-end benchmark of histserved. It
// builds cmd/histserved from this checkout, starts it on loopback, and
// drives it through the public client package with four workloads
// (ingest, query, mixed, fanout), checking the answers for correctness.
//
// Usage (from cmd/histload, or through bench.sh from the repository
// root):
//
//	histload [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	histload -compare A.json B.json
//
// It prints one line per metric, "workload metric value unit n=<samples>",
// then one JSON object as the last line of standard output. With -trace 1
// it instead replays each workload's op stream from one client against
// an in-process server and a mirror pipeline, and reports per-layer
// metrics. It exits non-zero when a correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("histload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (ingest, query, mixed, fanout); empty runs all four")
		seed    = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 30, "timed phase per workload, in seconds")
		trace   = fs.Int("trace", 0, "1: traced single-client run reporting per-layer metrics")
		out     = fs.String("out", "", "append each workload's result as one JSON line to this file")
		compare = fs.Bool("compare", false, "compare two -out files: histload -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "histload: -compare needs two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(stderr, "histload: %v\n", err)
			return 2
		}
		selected = []workload{*w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, err := runAll(ctx, selected, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "histload: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fmt.Fprintf(stderr, "histload: %v\n", err)
			return 1
		}
	}
	if !report(stdout, results) {
		return 1
	}
	return 0
}

// runAll builds what the runs need inside the repository's .bench_build
// directory and runs each workload in turn.
func runAll(ctx context.Context, selected []workload, seed int64, seconds float64, traced bool, log io.Writer) ([]*result, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(buildDir, "histload-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{work: work, http: newHTTPClient(), log: log}
	if !traced {
		if e.bin, err = buildServer(root, work); err != nil {
			return nil, err
		}
	}
	var results []*result
	for i := range selected {
		w := &selected[i]
		var res *result
		if traced {
			res, err = e.traceWorkload(ctx, w, seed, seconds, buildDir)
		} else {
			res, err = e.runWorkload(ctx, w, seed, seconds)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// report prints every metric line, the checks, and the final JSON
// line; it returns whether every check passed.
func report(out io.Writer, results []*result) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		defs := endToEnd
		if r.Trace {
			defs = perLayer
		}
		for _, d := range defs {
			m := r.Metrics[d.name]
			fmt.Fprintf(out, "%s %s %s %s n=%d\n", r.Workload, d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.N)
			key := d.name
			if len(results) > 1 {
				key = r.Workload + "/" + d.name
			}
			final.Metrics[key] = value{m.Value, m.Unit}
		}
		for _, k := range sortedKeys(r.Info) {
			m := r.Info[k]
			fmt.Fprintf(out, "# info %s %s %s %s n=%d\n", r.Workload, k, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.N)
		}
		for _, l := range r.Layers {
			fmt.Fprintf(out, "# layer %s %-24s n=%-7d mean=%9.2fus p50=%9.2fus p99=%9.2fus share=%6.2f%%\n",
				r.Workload, l.Name, l.N, l.MeanUS, l.P50US, l.P99US, 100*l.Share)
		}
		for _, c := range r.Checks {
			status := "ok"
			if !c.OK {
				status = "FAIL"
			}
			fmt.Fprintf(out, "# check %s %s %s %s\n", r.Workload, c.Name, status, c.Detail)
		}
		final.Correct = final.Correct && r.correct()
		final.Attempted += r.Attempted
		final.Failed += r.Failed
	}
	line, _ := json.Marshal(final) // plain numbers and strings always marshal
	fmt.Fprintln(out, string(line))
	return final.Correct
}

func appendResults(path string, results []*result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return f.Close()
}
