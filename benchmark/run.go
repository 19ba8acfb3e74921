package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run performs the workload's set-up; setup_s
// is their median, and the last one is the instance that gets measured.
const setupReps = 3

// ladderOps is how much of the first worker's tape each rung of the ladder
// replays: enough for stable per-op costs, little enough that the slowest
// rung (ordered scans) keeps a traced run inside its time budget.
const ladderOps = 1 << 16

// runCap bounds one run's wall-clock time, set-up included.
const runCap = 170 * time.Second

// runConfig is what one invocation fixes for all of its runs.
type runConfig struct {
	window    time.Duration
	traced    bool
	serverBin string // built ascyserve
	outDir    string // "" = write no files
}

// workerCount is C: connections for wire workloads, goroutines for the
// library workload. It never exceeds the processors available.
func workerCount() int { return min(2, runtime.NumCPU()) }

// runOne runs one workload once and returns its result; the error is set
// when the run could not be completed at all.
func runOne(ctx context.Context, cfg runConfig, wl *workload, seed uint64) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, runCap)
	defer cancel()
	res := &result{
		Workload: wl.name,
		Seed:     seed,
		Traced:   cfg.traced,
		Env:      currentEnvironment(workerCount(), cfg.window.Seconds()),
	}
	if cfg.traced {
		res.trace = newTracer()
	}
	picker := newKeyPicker(wl)
	tapes := make([]*tape, workerCount())
	for i := range tapes {
		tapes[i] = buildTape(wl, picker, seed, i)
	}
	var err error
	if wl.lib {
		err = runLib(ctx, cfg, wl, tapes, res)
	} else {
		err = runWire(ctx, cfg, wl, tapes, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if cfg.traced {
		ladder, err := runLadder(wl, tapes[0].prefix(ladderOps), seed, res.trace)
		if err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", wl.name, err)
		}
		for k, v := range ladder {
			res.PerLayer[k] = v
		}
		if !wl.lib {
			// What the server spends per request outside the parse and
			// store rungs: dispatch, respond, flush, syscalls, scheduling.
			res.PerLayer["server.conn_self_us_op"] = res.EndToEnd["cpu_us_per_op"] -
				(ladder["server.protocol_parse_ns_op"]+ladder["server.store_ns_op"])/1e3
		}
		if cfg.outDir != "" {
			tf := traceFile{Workload: wl.name, Seed: seed, Env: res.Env, Counters: res.PerLayer, Spans: res.trace.spans}
			if err := writeJSON(filepath.Join(cfg.outDir, wl.name+".trace.json"), tf); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// finish turns the measured phase into the result's metrics. rssPeakMB and
// setups come from the caller, which knows which process is the program;
// opSpan names the sampled-operation spans of a traced run.
func (res *result) finish(ld *load, edges []edge, rssPeakMB float64, setups []float64, opSpan string) {
	res.Windows = ld.windows(edges)
	res.SetupS = setups
	first, last := edges[0], edges[numWindows]
	ops := float64(last.ops - first.ops)
	seconds := float64(last.at-first.at) / 1e9
	res.EndToEnd = map[string]float64{
		"ops_per_s":     medianOf(res.Windows, func(w windowValues) float64 { return w.OpsPerS }),
		"cpu_us_per_op": medianOf(res.Windows, func(w windowValues) float64 { return w.CPUUsPerOp }),
		"lat_p50_us":    medianOf(res.Windows, func(w windowValues) float64 { return w.LatP50Us }),
		"lat_p99_us":    medianOf(res.Windows, func(w windowValues) float64 { return w.LatP99Us }),
		"rss_peak_mb":   rssPeakMB,
		"setup_s":       median(setups),
	}
	if !res.Traced {
		return
	}
	// The benchmark's own layer. Even windows of a traced run record a span
	// per sampled operation and odd ones do not; the difference in their throughput
	// is what tracing costs.
	var on, off []float64
	lo, hi := res.Windows[0].OpsPerS, res.Windows[0].OpsPerS
	for i, w := range res.Windows {
		if i%2 == 0 {
			on = append(on, w.OpsPerS)
		} else {
			off = append(off, w.OpsPerS)
		}
		lo, hi = min(lo, w.OpsPerS), max(hi, w.OpsPerS)
	}
	res.PerLayer = map[string]float64{
		"gen.cpu_us_op":         ratio((last.selfCPU-first.selfCPU)*1e6, ops),
		"gen.allocs_op":         ratio(float64(last.mem.Mallocs-first.mem.Mallocs), ops),
		"gen.gc_pause_ms":       float64(last.mem.PauseTotalNs-first.mem.PauseTotalNs) / 1e6,
		"gen.lat_p999_us":       medianOf(res.Windows, func(w windowValues) float64 { return w.LatP999Us }),
		"gen.window_spread_pct": 100 * ratio(hi-lo, res.EndToEnd["ops_per_s"]),
		"gen.scan_keys_per_s":   ratio(float64(last.scanKeys-first.scanKeys), seconds),
		"trace.overhead_pct":    100 * ratio(median(off)-median(on), median(off)),
	}
	// Operation spans hang under one span per traced window.
	windowSpan := map[int]int{}
	for w := 0; w < numWindows; w += 2 {
		windowSpan[w] = res.trace.add("gen.window", 0, edges[w].at, edges[w+1].at, int(edges[w+1].ops-edges[w].ops))
	}
	for _, ws := range ld.workers {
		for _, s := range ws.spans[:min(ws.nspan, len(ws.spans))] {
			res.trace.add(opSpan, windowSpan[s.window], s.Start, s.End, 1)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scratchRoot holds what exists only while the benchmark runs: the server
// binary, snapshots and address files. benchmark/.gitignore covers it.
const scratchRoot = "benchmark/out/tmp"

// scratchDir makes a private directory under scratchRoot; the caller
// removes it.
func scratchDir() (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchRoot, "run-")
}
