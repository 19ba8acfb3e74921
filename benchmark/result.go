package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEndDefs and perLayerDefs are the metrics of BENCHMARK.json, in its
// order; a test keeps the two in step. The issue's seventh end-to-end
// metric, failed_share, is 0 on every good run, which the contract cannot
// bound relatively, so it travels in the result line's
// attempted/failed/correct fields and -agree applies its absolute bound.
var endToEndDefs = []metricDef{
	{"ops_per_s", "op/s"},
	{"cpu_us_per_op", "us"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayerDefs = []metricDef{
	{"core.set_ns_op", "ns"},
	{"core.set_allocs_op", "count"},
	{"core.stores_op", "count"},
	{"core.cas_fail_op", "count"},
	{"core.restarts_op", "count"},
	{"core.parse_restarts_op", "count"},
	{"core.traversals_op", "count"},
	{"ascylib.strmap_ns_op", "ns"},
	{"ascylib.strmap_self_ns_op", "ns"},
	{"ascylib.strmap_allocs_op", "count"},
	{"ascylib.range_ns_key", "ns"},
	{"server.store_ns_op", "ns"},
	{"server.store_self_ns_op", "ns"},
	{"server.store_allocs_op", "count"},
	{"server.store_value_reuse_ratio", "ratio"},
	{"server.protocol_parse_ns_op", "ns"},
	{"server.protocol_allocs_op", "count"},
	{"server.conn_self_us_op", "us"},
	{"server.batch_depth_avg", "count"},
	{"server.bytes_read_op", "B"},
	{"server.bytes_written_op", "B"},
	{"server.get_hit_ratio", "ratio"},
	{"server.protocol_errors", "count"},
	{"server.conns_shed", "count"},
	{"server.handler_panics", "count"},
	{"server.curr_items", "count"},
	{"snapshot.taken", "count"},
	{"snapshot.bytes", "B"},
	{"snapshot.load_ms", "ms"},
	{"snapshot.loaded_items", "count"},
	{"ssmem.reuse_ratio", "ratio"},
	{"ssmem.garbage_end", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_inuse_mb", "MiB"},
	{"cluster.route_ns_op", "ns"},
	{"gen.cpu_us_op", "us"},
	{"gen.allocs_op", "count"},
	{"gen.gc_pause_ms", "ms"},
	{"gen.lat_p999_us", "us"},
	{"gen.window_spread_pct", "%"},
	{"gen.scan_keys_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// environment is recorded with every result so that runs from different
// boxes, toolchains or commits are never compared silently.
type environment struct {
	NProc         int     `json:"nproc"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	Workers       int     `json:"workers"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	WindowSeconds float64 `json:"window_seconds"`
	Windows       int     `json:"windows"`
}

func currentEnvironment(workers int, windowSeconds float64) environment {
	return environment{
		NProc:         runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Workers:       workers,
		GoVersion:     runtime.Version(),
		Commit:        commit(),
		WindowSeconds: windowSeconds,
		Windows:       numWindows,
	}
}

// commit asks git for HEAD of the working directory's own repository, never
// a parent's; outside a checkout with history it is "unknown".
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Env       environment        `json:"env"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Windows   []windowValues     `json:"windows"`
	SetupS    []float64          `json:"setup_s_each"`

	trace *tracer
}

func (r *result) failedShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// correct is the oracle's verdict on the whole run.
func (r *result) correct() bool { return r.Attempted > 0 && r.Failed == 0 }

// print writes every metric as "name value unit". End-to-end numbers of a
// traced run are marked: they are context for the ladder, not results.
func (r *result) print(w io.Writer) {
	tag := ""
	if r.Traced {
		tag = " (traced run)"
	}
	fmt.Fprintf(w, "workload %s seed %d%s: %d workers, %d x %.3gs windows, %s, commit %s\n",
		r.Workload, r.Seed, tag, r.Env.Workers, r.Env.Windows, r.Env.WindowSeconds, r.Env.GoVersion, r.Env.Commit)
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, r.EndToEnd[d.name], d.unit)
	}
	fmt.Fprintf(w, "  %-32s %14.6f ratio (%d of %d)\n", "failed_share", r.failedShare(), r.Failed, r.Attempted)
	samples := 0
	for _, wv := range r.Windows {
		samples += wv.Samples
	}
	fmt.Fprintf(w, "  %-32s %14d count\n", "latency_samples", samples)
	for _, d := range perLayerDefs {
		if v, ok := r.PerLayer[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

// contractLine is the single JSON object the benchmark driver reads from
// the last line of standard output: the end-to-end metrics of an untraced
// run, every per-layer metric of a traced one (0 where the workload does
// not cross the layer).
func (r *result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, from := endToEndDefs, r.EndToEnd
	if r.Traced {
		defs, from = perLayerDefs, r.PerLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{from[d.name], d.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
