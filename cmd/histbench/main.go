// Command histbench regenerates the paper's evaluation figures as text
// tables.
//
// Usage:
//
//	histbench [-fig id] [-seeds n] [-points n] [-quick] [-list] [-format table|csv]
//	histbench -json                 # ingest bench smoke suite as JSON
//	histbench -compare BENCH.json   # diff a fresh run against a baseline (warn-only)
//
// Without -fig it runs every registered experiment in order. IDs match
// the paper's figure numbers (fig5 … fig23) plus sec731, the ablations
// (ablation-subbucket, ablation-alphamin, …) and the repo's own
// systems experiments ("concurrency": single-thread vs mutex-wrapped
// vs sharded ingest throughput; "serving": HTTP ingest throughput,
// JSON vs binary batches); histbench -list prints every ID.
//
// The default settings are the paper's (100,000 points, 10 seeds per
// configuration); -quick caps them for a fast smoke run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dynahist/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("histbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figID   = fs.String("fig", "", "single figure to run (default: all)")
		seeds   = fs.Int("seeds", 10, "random seeds averaged per configuration")
		points  = fs.Int("points", 100000, "data points per run")
		quick   = fs.Bool("quick", false, "cap seeds and points for a fast smoke run")
		list    = fs.Bool("list", false, "list available figure IDs and exit")
		format  = fs.String("format", "table", "output format: table or csv")
		jsonOut = fs.Bool("json", false, "run the ingest bench smoke suite and emit JSON (the perf-trajectory format)")
		compare = fs.String("compare", "", "run the bench smoke suite and diff against a baseline JSON file (warn-only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	if *jsonOut {
		if err := writeBenchJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *compare != "" {
		if err := compareBench(*compare, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", err)
			return 1
		}
		return 0
	}

	opts := experiments.Options{Seeds: *seeds, Points: *points, Quick: *quick}

	ids := experiments.IDs()
	if *figID != "" {
		if _, ok := experiments.Registry[*figID]; !ok {
			fmt.Fprintf(stderr, "histbench: unknown figure %q (use -list)\n", *figID)
			return 2
		}
		ids = []string{*figID}
	}
	for _, id := range ids {
		start := time.Now()
		fig, err := experiments.Registry[id](opts)
		if err != nil {
			fmt.Fprintf(stderr, "histbench: %s: %v\n", id, err)
			return 1
		}
		var werr error
		switch *format {
		case "table":
			werr = fig.WriteTable(stdout)
		case "csv":
			werr = fig.WriteCSV(stdout)
		default:
			fmt.Fprintf(stderr, "histbench: unknown format %q\n", *format)
			return 2
		}
		if werr != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", werr)
			return 1
		}
		if *format == "table" {
			fmt.Fprintf(stdout, "# elapsed: %v\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}
