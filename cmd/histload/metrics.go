package main

// The metrics histload emits. BENCHMARK.json at the repository root
// lists the same names and units with their regression bounds;
// TestMetricNamesMatchBenchmark keeps the two in step.

import (
	"math"
	"slices"
)

type metricDef struct {
	name, unit, better string
}

// endToEnd are measured with tracing off, on every workload. The
// latency metrics describe the workload's primary op (workload.primary).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"server_cpu_us_per_op", "us", "lower"},
	{"server_rss_mb", "MB", "lower"},
	{"est_ks", "1", "lower"},
}

// perLayer come from the traced run. Time metrics are the mean time of
// one call into the layer.
var perLayer = []metricDef{
	{"wire.encode_us", "us", "lower"},
	{"wire.decode_us", "us", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.fsyncs_per_s", "1/s", "lower"},
	{"wal.bytes_per_value", "B", "lower"},
	{"shard.merge_us", "us", "lower"},
	{"shard.merges_per_op", "count", "lower"},
	{"shard.view_hit_us", "us", "lower"},
	{"shard.insert_batch_us", "us", "lower"},
	{"shard.merged_buckets", "count", "lower"},
	{"server.digest_wait_ms", "ms", "lower"},
	{"server.digest_lag_p99", "count", "lower"},
	{"server.json_decode_us", "us", "lower"},
	{"server.json_encode_us", "us", "lower"},
	{"server.cache_hit_ratio", "1", "higher"},
	{"server.transport_us", "us", "lower"},
	{"server.checkpoint_ms", "ms", "lower"},
	{"histogram.describe_us", "us", "lower"},
	{"tuner.convert_us", "us", "lower"},
	{"tuner.apply_us", "us", "lower"},
	{"tuner.builds_per_query", "count", "lower"},
	{"envelope.snapshot_us", "us", "lower"},
	{"envelope.bytes", "B", "lower"},
	{"envelope.restore_us", "us", "lower"},
	{"union.superpose_us", "us", "lower"},
	{"union.reduce_us", "us", "lower"},
	{"union.build_us", "us", "lower"},
	{"obs.scrape_us", "us", "lower"},
	{"trace.overhead_us", "us", "lower"},
}

// metricValue is one reported number. N is the sample count behind it
// (0 where it is not a sample statistic).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload run, the unit -out appends and -compare reads.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info holds numbers that are reported but not compared.
	Info   map[string]metricValue `json:"info,omitempty"`
	Checks []check                `json:"checks"`
	// Layers is the traced run's per-layer table.
	Layers []layerRow `json:"layers,omitempty"`
}

func newResult(w *workload, seed int64, trace bool, seconds float64) *result {
	return &result{
		Workload: w.name, Seed: seed, Trace: trace, Seconds: seconds,
		Metrics: map[string]metricValue{}, Info: map[string]metricValue{},
	}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metricValue{Value: finite(v), Unit: unit, N: n}
}

func (r *result) info(name string, v float64, unit string, n int) {
	r.Info[name] = metricValue{Value: finite(v), Unit: unit, N: n}
}

// finite maps a statistic JSON cannot carry — +Inf from failed
// requests, NaN from an empty sample — to the largest float, which
// reads as worst for every lower-is-better metric.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return math.MaxFloat64
	}
	return v
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (r *result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}
