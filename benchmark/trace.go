package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
)

// span is one timed interval of the traced run. Parent is the span that
// caused it (0 = none); Trace is the id shared by all spans of one replay
// or one measured window.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int    `json:"ops,omitempty"`

	window int // request spans: the measured window they belong to
}

// tracer keeps the spans of one traced run in memory; they are written out
// once, when the run ends.
type tracer struct {
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 8192)} }

// add records a finished span and returns its id. A span without a parent
// starts a new trace.
func (tr *tracer) add(name string, parent int, start, end int64, ops int) int {
	id := len(tr.spans) + 1
	trace := id
	if parent > 0 {
		trace = tr.spans[parent-1].Trace
	}
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end, Ops: ops})
	return id
}

// begin opens a span whose end is set later by end.
func (tr *tracer) begin(name string, parent int) int {
	return tr.add(name, parent, nanotime(), 0, 0)
}

func (tr *tracer) end(id, ops int) {
	tr.spans[id-1].End = nanotime()
	tr.spans[id-1].Ops = ops
}

// chunkOps is the span granularity of a ladder replay.
const chunkOps = 4096

// replayPasses is how many timed passes over the tape a rung makes, after
// one untimed pass that warms caches and brings the structure to the
// tape's steady state.
const replayPasses = 4

// rungCost is what one rung of the ladder measured.
type rungCost struct {
	nsOp, allocsOp float64
}

// replay drives apply over every op of the tape, single-threaded, recording
// one span per chunk under one replay span.
func (tr *tracer) replay(name string, t *tape, apply func(i int)) rungCost {
	n := len(t.ops)
	for i := 0; i < n; i++ {
		apply(i)
	}
	var before, after runtime.MemStats
	root := tr.begin(name+".replay", 0)
	runtime.ReadMemStats(&before)
	var busy int64
	for p := 0; p < replayPasses; p++ {
		for lo := 0; lo < n; lo += chunkOps {
			hi := min(lo+chunkOps, n)
			t0 := nanotime()
			for i := lo; i < hi; i++ {
				apply(i)
			}
			t1 := nanotime()
			busy += t1 - t0
			tr.add(name, root, t0, t1, hi-lo)
		}
	}
	runtime.ReadMemStats(&after)
	ops := replayPasses * n
	tr.end(root, ops)
	return rungCost{
		nsOp:     float64(busy) / float64(ops),
		allocsOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
	}
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Env      environment        `json:"env"`
	Counters map[string]float64 `json:"counters"`
	Spans    []span             `json:"spans"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
