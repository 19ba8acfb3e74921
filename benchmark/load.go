package main

import (
	"context"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// Every run is: set-up, one window of warm-up, then numWindows measured
// windows. Each end-to-end metric is the median of its per-window values,
// which is what keeps one scheduling hiccup out of the result. Eight short
// windows rather than five long ones: the build box's speed wanders by
// several percent from second to second, and a median over more windows
// resists that better than a mean over longer ones.
const numWindows = 8

const (
	phaseWarm = -1
	phaseStop = numWindows
)

// Latency is sampled on every sampleEvery-th operation of a worker.
const (
	wireSampleEvery = 16
	libSampleEvery  = 64
)

// epoch anchors the monotonic nanosecond clock of spans and samples.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// workerStats is one worker's share of the counters. The atomics are
// published by the worker and read by the coordinator at window edges; lat
// and spans belong to the worker until it returns.
type workerStats struct {
	_        [64]byte
	ops      atomic.Uint64 // completed operations, failed ones included
	failed   atomic.Uint64
	scanKeys atomic.Uint64
	_        [64]byte

	firstFailure string // what the oracle first objected to, for the operator

	lat   [numWindows][]int64 // sampled latencies, nanoseconds
	spans []span              // sampled operations of traced windows (a ring)
	nspan int
}

// maxRequestSpans bounds the request spans one worker keeps for the trace
// file: the most recent ones of its traced windows.
const maxRequestSpans = 1024

func (ws *workerStats) sample(phase int32, traced bool, start, end int64) {
	if phase < 0 || phase >= numWindows {
		return
	}
	ws.lat[phase] = append(ws.lat[phase], end-start)
	if traced && phase%2 == 0 {
		if ws.spans == nil {
			ws.spans = make([]span, maxRequestSpans)
		}
		ws.spans[ws.nspan%maxRequestSpans] = span{Start: start, End: end, window: int(phase)}
		ws.nspan++
	}
}

// fail counts one wrong answer and keeps a description of the first.
func (ws *workerStats) fail(describe func() string) {
	ws.failed.Add(1)
	if ws.firstFailure == "" {
		ws.firstFailure = describe()
	}
}

// load is the state the coordinator and the workers share.
type load struct {
	phase   atomic.Int32
	traced  bool
	workers []*workerStats
}

func newLoad(workers int, traced bool) *load {
	ld := &load{traced: traced, workers: make([]*workerStats, workers)}
	for i := range ld.workers {
		ld.workers[i] = &workerStats{}
	}
	ld.phase.Store(phaseWarm)
	return ld
}

// edge is what the coordinator reads at one window boundary.
type edge struct {
	at               int64 // nanotime
	ops, failed      uint64
	scanKeys         uint64
	progCPU, selfCPU float64 // seconds
	mem              runtime.MemStats
}

func (ld *load) edge(progPID int) (edge, error) {
	e := edge{at: nanotime()}
	for _, w := range ld.workers {
		e.ops += w.ops.Load()
		e.failed += w.failed.Load()
		e.scanKeys += w.scanKeys.Load()
	}
	var err error
	if e.selfCPU, err = procCPU(os.Getpid()); err != nil {
		return e, err
	}
	if e.progCPU = e.selfCPU; progPID != os.Getpid() {
		e.progCPU, err = procCPU(progPID)
	}
	return e, err
}

// runWindows paces the phases: warm-up, then the measured windows, then
// stop. It returns the numWindows+1 edges. around, when set, runs right
// before the first and right after the last measured window.
func (ld *load) runWindows(ctx context.Context, window time.Duration, progPID int, around func() error) ([]edge, error) {
	defer ld.phase.Store(phaseStop)
	sleep := func() error {
		select {
		case <-time.After(window):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := sleep(); err != nil {
		return nil, err
	}
	if around != nil {
		if err := around(); err != nil {
			return nil, err
		}
	}
	edges := make([]edge, 0, numWindows+1)
	for w := 0; w <= numWindows; w++ {
		e, err := ld.edge(progPID)
		if err != nil {
			return nil, err
		}
		if w == 0 || w == numWindows {
			runtime.ReadMemStats(&e.mem)
		}
		edges = append(edges, e)
		if w == numWindows {
			break
		}
		ld.phase.Store(int32(w))
		if err := sleep(); err != nil {
			return nil, err
		}
	}
	ld.phase.Store(phaseStop)
	if around != nil {
		if err := around(); err != nil {
			return nil, err
		}
	}
	return edges, nil
}

// windowValues are one measured window's end-to-end values.
type windowValues struct {
	OpsPerS    float64 `json:"ops_per_s"`
	CPUUsPerOp float64 `json:"cpu_us_per_op"`
	LatP50Us   float64 `json:"lat_p50_us"`
	LatP99Us   float64 `json:"lat_p99_us"`
	LatP999Us  float64 `json:"lat_p999_us"`
	Samples    int     `json:"samples"`
}

// windows turns edges and the workers' samples into per-window values. Call
// it only after every worker has returned.
func (ld *load) windows(edges []edge) []windowValues {
	out := make([]windowValues, numWindows)
	for w := range out {
		a, b := edges[w], edges[w+1]
		ops := float64(b.ops - a.ops)
		var lat []int64
		for _, ws := range ld.workers {
			lat = append(lat, ws.lat[w]...)
		}
		slices.Sort(lat)
		v := windowValues{
			OpsPerS:   ops / (float64(b.at-a.at) / 1e9),
			LatP50Us:  float64(percentile(lat, 0.50)) / 1e3,
			LatP99Us:  float64(percentile(lat, 0.99)) / 1e3,
			LatP999Us: float64(percentile(lat, 0.999)) / 1e3,
			Samples:   len(lat),
		}
		if ops > 0 {
			v.CPUUsPerOp = (b.progCPU - a.progCPU) * 1e6 / ops
		}
		out[w] = v
	}
	return out
}

func medianOf(ws []windowValues, f func(windowValues) float64) float64 {
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = f(w)
	}
	return median(v)
}
