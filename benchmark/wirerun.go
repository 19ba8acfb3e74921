package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// runWire is a wire workload: ascyserve as a subprocess on loopback, driven
// closed-loop by one connection per tape. The server process is the
// program, so cpu_us_per_op and rss_peak_mb are read from its /proc entries
// and the generator's own cost cannot dilute them.
func runWire(ctx context.Context, cfg runConfig, wl *workload, tapes []*tape, res *result) (err error) {
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapshot := filepath.Join(dir, "snapshot")

	// The preload is split over as many connections as the measured phase
	// uses; the read-back (persisting workloads) checks every pinned key.
	n, per := wl.preloaded(), wl.preloaded()/uint32(len(tapes))
	var preload []*tape
	for lo := uint32(0); lo < n; lo += per {
		preload = append(preload, sequentialTape(wl, opSet, lo, lo+per))
	}
	readBack := sequentialTape(wl, opGet, 0, wl.permanent())

	var (
		srv    *serverProc
		setups []float64
	)
	defer func() {
		if srv != nil && !srv.exited() {
			srv.kill()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.kill()
		}
		if err := os.Remove(snapshot); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		start := time.Now()
		if srv, err = wireSetup(ctx, cfg, wl, dir, snapshot, preload, readBack, res); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	ld := newLoad(len(tapes), cfg.traced)
	conns := make([]*wireConn, len(tapes))
	for i, t := range tapes {
		if conns[i], err = dialWire(wl, srv.addr, t, wl.window, ld.workers[i]); err != nil {
			return err
		}
		defer conns[i].c.Close()
	}
	var (
		wg       sync.WaitGroup
		connErrs = make([]error, len(conns))
	)
	for i, wc := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			connErrs[i] = wc.run(ld, 0)
		}()
	}
	// A traced run reads the server's stats right before the first and
	// right after the last measured window.
	var stats []map[string]float64
	var readStats func() error
	if cfg.traced {
		readStats = func() error {
			st, err := serverStats(srv.addr)
			stats = append(stats, st)
			return err
		}
	}
	edges, err := ld.runWindows(ctx, cfg.window, srv.pid(), readStats)
	if err != nil {
		// Unblock the workers' reads before waiting for them.
		for _, wc := range conns {
			wc.c.Close()
		}
	}
	wg.Wait()
	if err != nil {
		return err
	}
	rss, err := procPeakRSS(srv.pid())
	if err != nil {
		return err
	}
	for i, w := range ld.workers {
		res.Attempted += w.ops.Load()
		res.Failed += w.failed.Load()
		if w.firstFailure != "" {
			fmt.Fprintf(os.Stderr, "benchmark: %s: connection %d: first wrong answer: %s\n", wl.name, i, w.firstFailure)
		}
	}
	// A connection that broke, or a server that died or will not shut down
	// cleanly, is a wrong answer even if every reply before it was right.
	res.Attempted++
	if err := errors.Join(append(connErrs, srv.terminate())...); err != nil {
		res.Failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
	}

	res.finish(ld, edges, rss, setups, "wire.request")
	if cfg.traced {
		statsMetrics(res.PerLayer, stats[0], stats[1])
	}
	return nil
}

// wireSetup is one set-up: boot, preload every key and wait for every
// acknowledgement. A persisting workload then snapshots on demand, shuts
// the server down gracefully, boots a second one from the snapshot and
// reads every pinned key back, so that set-up time prices persistence and
// the measured phase runs on a warm-restarted server.
func wireSetup(ctx context.Context, cfg runConfig, wl *workload, dir, snapshot string, preload []*tape, readBack *tape, res *result) (*serverProc, error) {
	args := wl.serverArgs(snapshot, cfg.window)
	srv, err := startServer(ctx, cfg.serverBin, dir, args)
	if err != nil {
		return nil, err
	}
	count := func(attempted, failed uint64, err error) error {
		res.Attempted += attempted
		res.Failed += failed
		return err
	}
	if err := count(runTapes(wl, srv.addr, preload)); err != nil {
		srv.kill()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if !wl.snapshot {
		return srv, nil
	}
	reply, err := control(srv.addr, "msnap", "")
	if err == nil && reply[0] != "OK" {
		err = fmt.Errorf("msnap answered %q", reply[0])
	}
	if err == nil {
		err = srv.terminate()
	}
	if err != nil {
		if !srv.exited() {
			srv.kill()
		}
		return nil, err
	}
	if srv, err = startServer(ctx, cfg.serverBin, dir, args); err != nil {
		return nil, fmt.Errorf("warm restart: %w", err)
	}
	if err := count(runTape(wl, srv.addr, readBack)); err != nil {
		srv.kill()
		return nil, fmt.Errorf("read-back: %w", err)
	}
	return srv, nil
}

// statsMetrics derives the server's own per-layer counters from two reads
// of its stats verb, taken around the measured windows.
func statsMetrics(m map[string]float64, before, after map[string]float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	ops := d("cmd_batched")
	m["server.batch_depth_avg"] = ratio(ops, d("batches"))
	m["server.bytes_read_op"] = ratio(d("bytes_read"), ops)
	m["server.bytes_written_op"] = ratio(d("bytes_written"), ops)
	m["server.get_hit_ratio"] = ratio(d("get_hits"), d("get_hits")+d("get_misses"))
	m["server.store_value_reuse_ratio"] = ratio(d("value_pool_reused"), d("value_pool_allocs"))
	m["server.protocol_errors"] = d("protocol_errors")
	m["server.conns_shed"] = d("conns_shed")
	m["server.handler_panics"] = d("handler_panics")
	m["server.curr_items"] = after["curr_items"]
	// Absolute: what the measured server instance has done since it booted.
	m["snapshot.taken"] = after["snapshots_taken"]
	m["snapshot.bytes"] = after["snapshot_bytes"]
	m["snapshot.load_ms"] = after["snapshot_load_ms"]
	m["snapshot.loaded_items"] = after["loaded_items"]
}
