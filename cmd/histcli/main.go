// Command histcli streams numeric values from stdin (or a file) into a
// chosen histogram and answers range queries against the summary —
// the end-to-end "selectivity estimation from a maintained histogram"
// workflow.
//
// Usage:
//
//	histcli [-algo dado|dvo|dc|ac] [-mem bytes] [-seed n]
//	        [-query lo:hi ...] [-quantile q ...]
//	        [-feedback lo,hi,observed ...] [-dump] [file]
//	histcli -server URL -stats
//
// The second form talks to a running histserved instead of streaming
// locally: -stats fetches GET /v1/stats (requires the server to run
// with -metrics) and prints an operator table — uptime, cache hit
// ratio, WAL digest lag, anti-entropy counters and per-endpoint
// request counts with latency quantiles.
//
// Input: one value per line; lines beginning with '-' delete the value
// instead of inserting it (e.g. "-42" deletes one occurrence of 42).
// After the stream ends the tool pins one read View of the summary and
// answers everything from it — the summary statistics, the -query
// ranges, the -quantile percentiles, and with -dump the serialized
// bucket list in hex.
//
// Each -feedback lo,hi,observed record reports the true row count for
// the inclusive range [lo, hi]; the records drive one pass of the
// internal/tuner feedback loop over the pinned view, and every query
// after that answers from the tuned view — the same loop histserved
// runs online under -tuning, drivable from the shell.
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynahist"
	"dynahist/client"
	"dynahist/internal/tuner"
)

type queryList []string

func (q *queryList) String() string     { return strings.Join(*q, ",") }
func (q *queryList) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main's testable body: it parses args, runs the stream-ingest
// and query workflow against in/out, and returns the exit code.
func run(args []string, stdin io.Reader, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("histcli", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		algo      = fs.String("algo", "dado", "histogram: dado, dvo, dc or ac")
		mem       = fs.Int("mem", 1024, "memory budget in bytes")
		seed      = fs.Int64("seed", 1, "seed for the AC backing sample")
		dump      = fs.Bool("dump", false, "print the serialized bucket list in hex")
		serverURL = fs.String("server", "", "histserved base URL for remote commands (e.g. http://localhost:8080)")
		stats     = fs.Bool("stats", false, "fetch /v1/stats from -server and print an operator table (server needs -metrics)")
		queries   queryList
		quantiles queryList
		feedbacks queryList
	)
	fs.Var(&queries, "query", "range query lo:hi (repeatable)")
	fs.Var(&quantiles, "quantile", "quantile q in (0,1] (repeatable)")
	fs.Var(&feedbacks, "feedback", "feedback record lo,hi,observed — true row count for [lo,hi]; tunes the view before queries (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(errOut, "histcli: %v\n", err)
		return 1
	}

	if *stats {
		if *serverURL == "" {
			fmt.Fprintln(errOut, "histcli: -stats needs -server URL")
			return 2
		}
		if err := printStats(*serverURL, out); err != nil {
			return fail(err)
		}
		return 0
	}

	h, err := buildHistogram(*algo, *mem, *seed)
	if err != nil {
		return fail(err)
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}

	inserted, deleted, skipped := 0, 0, 0
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "-") {
			v, err := strconv.ParseFloat(line[1:], 64)
			if err != nil {
				skipped++
				continue
			}
			if err := h.Delete(v); err != nil {
				skipped++
				continue
			}
			deleted++
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			skipped++
			continue
		}
		if err := h.Insert(v); err != nil {
			skipped++
			continue
		}
		inserted++
	}
	if err := scanner.Err(); err != nil {
		return fail(err)
	}

	// Everything after the stream answers off one pinned read view:
	// the summary line, every range query and every quantile see the
	// same consistent state. Feedback records tune that view first, so
	// the queries below answer from the adjusted estimates.
	view, err := h.View()
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(out, "algorithm   %s\n", *algo)
	fmt.Fprintf(out, "memory      %d bytes\n", *mem)
	fmt.Fprintf(out, "inserted    %d\n", inserted)
	fmt.Fprintf(out, "deleted     %d\n", deleted)
	if skipped > 0 {
		fmt.Fprintf(out, "skipped     %d (unparseable or failed)\n", skipped)
	}
	fmt.Fprintf(out, "total       %.0f\n", view.Total())
	fmt.Fprintf(out, "buckets     %d\n", view.NumBuckets())

	if len(feedbacks) > 0 {
		view, err = tunedView(view, feedbacks, out)
		if err != nil {
			return fail(err)
		}
	}

	for _, q := range queries {
		lo, hi, err := parseRange(q)
		if err != nil {
			return fail(err)
		}
		est := view.EstimateRange(lo, hi)
		sel := 0.0
		if view.Total() > 0 {
			sel = est / view.Total()
		}
		fmt.Fprintf(out, "query [%g, %g]: estimate %.1f rows (selectivity %.4f)\n", lo, hi, est, sel)
	}

	for _, s := range quantiles {
		q, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fail(fmt.Errorf("bad quantile %q: %v", s, err))
		}
		v, err := view.Quantile(q)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "quantile %g: %.2f\n", q, v)
	}

	if *dump {
		data, err := dynahist.MarshalBuckets(view.Buckets())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "snapshot    %d bytes\n%s\n", len(data), hex.EncodeToString(data))
	}
	return 0
}

// printStats fetches /v1/stats from a running histserved and renders
// the operator table: the health header, cache and WAL state, the
// anti-entropy counters, and one row per endpoint that has seen
// traffic, with latency quantiles in milliseconds.
func printStats(baseURL string, out io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := client.New(baseURL, &http.Client{Timeout: 10 * time.Second})
	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("fetching stats (is the server running with -metrics?): %w", err)
	}

	fmt.Fprintf(out, "server      %s\n", baseURL)
	if st.SiteID != "" {
		fmt.Fprintf(out, "site        %s\n", st.SiteID)
	}
	fmt.Fprintf(out, "uptime      %s\n", (time.Duration(st.UptimeSeconds * float64(time.Second))).Round(time.Second))
	fmt.Fprintf(out, "histograms  %d\n", st.Histograms)
	fmt.Fprintf(out, "cache       %d hits, %d misses (hit ratio %.3f), %d stale puts, %d evictions\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.HitRatio, st.Cache.StalePuts, st.Cache.Evictions)
	if st.WAL.Enabled {
		fmt.Fprintf(out, "wal         appended LSN %d, digested LSN %d, digest lag %d, %d fsyncs, %d rotations\n",
			st.WAL.AppendedLSN, st.WAL.DigestedLSN, st.WAL.DigestLag, st.WAL.Fsyncs, st.WAL.Rotations)
	} else {
		fmt.Fprintf(out, "wal         disabled\n")
	}
	if st.AntiEntropy.Rounds > 0 || len(st.AntiEntropy.Peers) > 0 {
		fmt.Fprintf(out, "sync        %d rounds: %d adopted, %d replicated, %d skipped, %d fallback pulls\n",
			st.AntiEntropy.Rounds, st.AntiEntropy.Adopted, st.AntiEntropy.Replicated,
			st.AntiEntropy.Skipped, st.AntiEntropy.FallbackPulls)
		for _, p := range st.AntiEntropy.Peers {
			fmt.Fprintf(out, "peer        %s: %d failures, backoff %.1fs\n", p.Peer, p.Failures, p.BackoffSeconds)
		}
	}
	if st.Tuning.Enabled {
		fmt.Fprintf(out, "tuning      %d feedback records applied, %d clamped\n", st.Tuning.Applied, st.Tuning.Clamped)
	}
	if st.Ingest.Batches > 0 {
		fmt.Fprintf(out, "ingest      %d batches, %.0f values (batch size p50 %.1f, p90 %.1f, p99 %.1f)\n",
			st.Ingest.Batches, st.Ingest.Values, st.Ingest.BatchP50, st.Ingest.BatchP90, st.Ingest.BatchP99)
	}

	names := make([]string, 0, len(st.Endpoints))
	for name, ep := range st.Endpoints {
		if ep.Requests > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(out, "\n%-14s %10s %12s %12s %12s\n", "endpoint", "requests", "p50 ms", "p90 ms", "p99 ms")
		for _, name := range names {
			ep := st.Endpoints[name]
			fmt.Fprintf(out, "%-14s %10d %12.3f %12.3f %12.3f\n",
				name, ep.Requests, ep.LatencyP50*1e3, ep.LatencyP90*1e3, ep.LatencyP99*1e3)
		}
	}
	return nil
}

// tunedView replays the -feedback records through one tuner pass over
// the pinned view and returns the adjusted view, printing per-record
// before/after estimates.
func tunedView(v *dynahist.View, specs []string, out io.Writer) (*dynahist.View, error) {
	recs := make([]tuner.Record, len(specs))
	for i, s := range specs {
		lo, hi, obs, err := parseFeedback(s)
		if err != nil {
			return nil, err
		}
		recs[i] = tuner.Record{Lo: lo, Hi: hi, Observed: obs}
	}

	st, err := tuner.StoreOfView(v)
	if err != nil {
		return nil, err
	}

	t := tuner.New(tuner.Config{})
	for i := range recs {
		recs[i].Estimated = tuner.EstimateRange(st, recs[i].Lo, recs[i].Hi)
		if err := t.Observe(recs[i]); err != nil {
			return nil, fmt.Errorf("bad feedback %q: %v", specs[i], err)
		}
	}
	t.ApplyTo(st)
	for _, r := range recs {
		fmt.Fprintf(out, "feedback [%g, %g]: estimated %.1f observed %.0f tuned %.1f\n",
			r.Lo, r.Hi, r.Estimated, r.Observed, tuner.EstimateRange(st, r.Lo, r.Hi))
	}
	return tuner.ViewOfStore(st)
}

func buildHistogram(algo string, mem int, seed int64) (dynahist.Estimator, error) {
	kind, err := dynahist.ParseKind(algo)
	if err != nil || !kind.Maintained() {
		return nil, fmt.Errorf("unknown algorithm %q (want dado, dvo, dc or ac)", algo)
	}
	opts := []dynahist.Option{dynahist.WithMemory(mem)}
	if kind == dynahist.KindAC {
		opts = append(opts, dynahist.WithSeed(seed))
	}
	h, err := dynahist.New(kind, opts...)
	if err != nil {
		return nil, err
	}
	// Every kind New builds implements the read plane.
	return h.(dynahist.Estimator), nil
}

func parseRange(s string) (lo, hi float64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad query %q, want lo:hi", s)
	}
	if lo, err = strconv.ParseFloat(parts[0], 64); err != nil {
		return 0, 0, fmt.Errorf("bad query %q: %v", s, err)
	}
	if hi, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return 0, 0, fmt.Errorf("bad query %q: %v", s, err)
	}
	return lo, hi, nil
}

// parseFeedback parses a -feedback spec "lo,hi,observed".
func parseFeedback(s string) (lo, hi, observed float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad feedback %q, want lo,hi,observed", s)
	}
	fields := [3]*float64{&lo, &hi, &observed}
	for i, p := range parts {
		if *fields[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64); err != nil {
			return 0, 0, 0, fmt.Errorf("bad feedback %q: %v", s, err)
		}
	}
	return lo, hi, observed, nil
}
