package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// runLib is the library workload: the structure built in-process through
// ascylib.New and driven through libSet by one goroutine per tape. The
// benchmark process is the program, so its own CPU and memory are what
// cpu_us_per_op and rss_peak_mb report.
func runLib(ctx context.Context, cfg runConfig, wl *workload, tapes []*tape, res *result) error {
	// VmHWM is a high-water mark of the whole process; give back what
	// earlier runs of a -repeat set left and start it afresh, so that they
	// do not show up in this run's rss_peak_mb. Where the kernel refuses the
	// reset, a single run is still right.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	var (
		set    libSet
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		// Drop the previous instance first, so that every set-up — and the
		// measured phase after the last — starts from the same heap.
		set = nil
		runtime.GC()
		start := time.Now()
		s, err := preloadedCoreSet(wl, res.Seed)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		set = s
	}
	res.Attempted += uint64(wl.preloaded()) * setupReps

	ld := newLoad(len(tapes), cfg.traced)
	var wg sync.WaitGroup
	for i, t := range tapes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			libWorker(wl, set, t, ld, ld.workers[i])
		}()
	}
	edges, err := ld.runWindows(ctx, cfg.window, os.Getpid(), nil)
	wg.Wait()
	if err != nil {
		return err
	}
	rss, err := procPeakRSS(os.Getpid())
	if err != nil {
		return err
	}

	// Read back every pinned key: one lost during the run is a failure even
	// if no worker happened to search for it.
	for id := uint32(0); id < wl.permanent(); id++ {
		res.Attempted++
		if v, ok := set.Search(libKey(id)); !ok || v != libValue(id) {
			res.Failed++
		}
	}
	for i, w := range ld.workers { // warm-up included: every operation is checked
		res.Attempted += w.ops.Load()
		res.Failed += w.failed.Load()
		if w.firstFailure != "" {
			fmt.Fprintf(os.Stderr, "benchmark: %s: worker %d: first wrong answer: %s\n", wl.name, i, w.firstFailure)
		}
	}

	res.finish(ld, edges, rss, setups, "core.op")
	if cfg.traced {
		first, last := edges[0], edges[numWindows]
		res.PerLayer["runtime.gc_cycles"] = float64(last.mem.NumGC - first.mem.NumGC)
		res.PerLayer["runtime.gc_pause_ms"] = float64(last.mem.PauseTotalNs-first.mem.PauseTotalNs) / 1e6
		res.PerLayer["runtime.heap_inuse_mb"] = float64(last.mem.HeapInuse) / (1 << 20)
	}
	return nil
}

// libWorker loops over its tape until the load stops, checking every
// result: a pinned key must be found, and any value found or removed must
// be the key's.
func libWorker(wl *workload, set libSet, t *tape, ld *load, stats *workerStats) {
	perm := wl.permanent()
	phase := ld.phase.Load()
	for i, pos := 0, 0; ; i++ {
		sampled := i%libSampleEvery == 0
		var start int64
		if sampled {
			if i > 0 {
				stats.ops.Add(libSampleEvery)
			}
			if phase = ld.phase.Load(); phase == phaseStop {
				return
			}
			start = nanotime()
		}
		o := t.ops[pos]
		if pos++; pos == len(t.ops) {
			pos = 0
		}
		k := libKey(o.id)
		switch o.kind {
		case opGet:
			v, ok := set.Search(k)
			if (ok && v != libValue(o.id)) || (!ok && o.id < perm) {
				stats.fail(func() string { return fmt.Sprintf("Search(%d) = %d, %v", k, v, ok) })
			}
		case opSet:
			set.Insert(k, libValue(o.id))
		case opDelete:
			if v, ok := set.Remove(k); ok && v != libValue(o.id) {
				stats.fail(func() string { return fmt.Sprintf("Remove(%d) = %d", k, v) })
			}
		}
		if sampled {
			stats.sample(phase, ld.traced, start, nanotime())
		}
	}
}
