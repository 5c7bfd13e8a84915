package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, math.Inf(1)}, 99); !math.IsInf(got, 1) {
		t.Errorf("a failed request must count as +Inf in the tail, got %v", got)
	}
}

func TestTopPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	l := summarize(xs)
	if l.n != 1000 || l.top != 99 || l.topValue != 989 || l.p50 != 499 {
		t.Errorf("summarize = %+v, want n=1000 p50=499 top=99 at 989", l)
	}
}

func TestChunkedPercentileIgnoresOneBadChunk(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	for i := 1000; i < 2000; i++ {
		xs[i] = 1000 // one stalled stretch
	}
	got, chunks := chunkedPercentile(xs, 99, 1000)
	if chunks != 5 || got != 98 {
		t.Errorf("chunkedPercentile = %v over %d chunks, want 98 over 5", got, chunks)
	}
	if got, chunks := chunkedPercentile(xs[:1500], 99, 1000); chunks != 1 || got != 1000 {
		t.Errorf("under two chunks' worth: %v over %d chunks, want the plain p99 1000 over 1", got, chunks)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// drain takes n ops from each stream, round-robin.
func drain(streams []func() op, n int) []op {
	var out []op
	for i := 0; i < n; i++ {
		for _, next := range streams {
			out = append(out, next())
		}
	}
	return out
}

func TestOpStreamDeterministicPerSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		gen := func(seed int64) ([]op, [][]float64) {
			in, err := newInputs(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			st := newState(in)
			var pre [][]float64
			for s := 0; s < w.sites; s++ {
				for h := 0; h < w.hists; h++ {
					pre = append(pre, st.preloadBatches(h, s)...)
				}
			}
			return drain(st.streams(), 300), pre
		}
		a, preA := gen(7)
		b, preB := gen(7)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(preA, preB) {
			t.Errorf("%s: seed 7 gave two different op streams", w.name)
		}
		if c, _ := gen(8); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
	}
}

func TestIngestWritersOwnDisjointHistograms(t *testing.T) {
	w, _ := workloadByName("ingest")
	in, err := newInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	streams := newState(in).streams()
	owner := map[int]int{}
	for c, next := range streams {
		for k := 0; k < 64; k++ {
			o := next()
			if prev, ok := owner[o.hist]; ok && prev != c {
				t.Fatalf("histogram %d written by clients %d and %d", o.hist, prev, c)
			}
			owner[o.hist] = c
			if want := k%pollEvery == pollEvery-1; o.poll != want {
				t.Fatalf("client %d batch %d: poll %v, want %v", c, k, o.poll, want)
			}
		}
	}
	if len(owner) != w.hists {
		t.Fatalf("writers cover %d histograms, want %d", len(owner), w.hists)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		rate  = 200 // one op due every 5 ms
		stall = 30 * time.Millisecond
	)
	var (
		mu    sync.Mutex
		dues  []time.Time
		count int
	)
	stream := func() op { return op{} }
	rec := openLoop(context.Background(), []func() op{stream}, rate, 100*time.Millisecond, func(o op, due time.Time, rec *recorder) {
		mu.Lock()
		dues = append(dues, due)
		count++
		n := count
		mu.Unlock()
		if n == 3 {
			time.Sleep(stall)
		}
		rec.attempted++
		rec.record(opQuery, due, false)
	})
	if rec.attempted != 20 {
		t.Fatalf("sent %d ops in 100 ms at 200/s, want 20", rec.attempted)
	}
	for i := 1; i < len(dues); i++ {
		if d := dues[i].Sub(dues[i-1]); d != 5*time.Millisecond {
			t.Fatalf("due times %d and %d are %v apart, want 5ms", i-1, i, d)
		}
	}
	// The op due right after the stall waited for it: its latency counts
	// the backlog, not just its own service time.
	if lat := rec.lat[opQuery][3].ms; lat < ms(stall)-5-1 {
		t.Errorf("op after a %v stall reports %.2f ms, want the backlog included", stall, lat)
	}
	// Ops sent late were not slept for, so they record no generator lag.
	if len(rec.lag) >= rec.attempted {
		t.Errorf("%d lag samples for %d ops; backlogged ops must not record lag", len(rec.lag), rec.attempted)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := readBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNamesMatchBenchmark(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d layer metrics, limits 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	var e2e, layer []metricDef
	largest := 0.0
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range append(e2e, layer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q does not match %v", m.name, metricName)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, histload emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, histload emits %v", layer, perLayer)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v, want the largest bound %v", m.Bound, largest)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "ok"},
		{"slower", []float64{120, 121, 119, 120, 120}, "regressed"},
		{"noisy", []float64{60, 140, 100, 80, 120}, "unresolved"},
	} {
		if _, _, got := verdict(base, c.b, true, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if _, _, got := verdict([]float64{100, 160, 40}, []float64{10, 12, 11}, true, 0.1); got != "better" {
		t.Errorf("every B run below every A run: verdict %q, want better", got)
	}
}

// TestSmoke runs every workload for one second, untraced and traced,
// against a freshly built histserved, and checks that every metric of
// BENCHMARK.json is emitted with its unit and that every check passes.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	out := filepath.Join(t.TempDir(), "run.json")
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-seconds", "1", "-trace", trace, "-out", out}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		for _, l := range lines {
			// The mirror gate compares timings, which the race detector
			// distorts; every other check must pass regardless.
			if strings.HasPrefix(l, "# check") && strings.Contains(l, " FAIL") && !(raceEnabled && strings.Contains(l, "mirror_gate_")) {
				t.Errorf("-trace %s: %s", trace, l)
			}
		}
		if code != 0 && !raceEnabled {
			t.Fatalf("-trace %s exited %d\n%s\n%s", trace, code, stdout.String(), stderr.String())
		}
		var final struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if (!final.Correct && !raceEnabled) || final.Attempted == 0 || final.Failed != 0 {
			t.Errorf("-trace %s: correct=%v attempted=%d failed=%d\n%s", trace, final.Correct, final.Attempted, final.Failed, stdout.String())
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		want := map[string]bool{}
		for _, w := range workloads {
			for _, d := range defs {
				want[w.name+"/"+d.name] = true
			}
		}
		for key, m := range final.Metrics {
			if !want[key] {
				t.Errorf("-trace %s emits %s, which BENCHMARK.json does not list", trace, key)
				continue
			}
			delete(want, key)
			name := key[strings.IndexByte(key, '/')+1:]
			if m.Unit != units[name] {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", key, m.Unit, units[name])
			}
		}
		for key := range want {
			t.Errorf("-trace %s does not emit %s", trace, key)
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(mustRoot(t), ".bench_build", "trace-"+w.name+".jsonl")); err != nil {
			t.Errorf("traced run wrote no trace file for %s: %v", w.name, err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", out, out}, &stdout, &stderr); code != 0 {
		t.Errorf("comparing a run with itself exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
}

func mustRoot(t *testing.T) string {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}
