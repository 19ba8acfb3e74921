package main

// This is the one file of the benchmark that names the repository's
// symbols. It binds each rung of the ladder to the public entry point that
// production traffic crosses on its way down:
//
//	socket → server.ReadBatchInto → execute under server.Store.Pin →
//	ascylib.ShardedStringMap → … → core.Set
//
// so a refactor that moves or renames one of them has exactly one place to
// follow. Each rung replays the workload's own request tape
// single-threaded and is timed from outside; nothing here reaches into a
// layer's internals.

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"runtime"

	ascylib "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/server"
)

// serverCapacity is ascyserve's -capacity default, which every wire
// workload keeps.
const serverCapacity = 1 << 16

// sink keeps the compiler from discarding a rung's results.
var sink uint64

// libSet is the interface the library workload drives.
type libSet = core.Set

// libKey and libValue map an id onto the 64-bit library interface (key 0 is
// reserved there).
func libKey(id uint32) core.Key     { return core.Key(id) + 1 }
func libValue(id uint32) core.Value { return core.Value(mix64(uint64(id) ^ 0x77)) }

// recycleStats returns the SSMEM counters of a structure that recycles
// nodes; ok is false when it leaves reclamation to the Go collector.
func recycleStats(s core.Set) (reuseRatio, garbage float64, ok bool) {
	r, ok := s.(core.Recycler)
	if !ok {
		return 0, 0, false
	}
	st := r.RecycleStats()
	return st.ReuseRate(), float64(st.Garbage), true
}

// coreKeys precomputes the 64-bit key each op reaches core.Set with, so the
// core rung times the structure and not the hashing the facade above it
// owns: the FNV hash of the key in hash mode, its big-endian 8-byte prefix
// in ordered mode (what OrderedStringMap indexes by), the id itself on the
// library workload. hi is the upper bound of a scan.
func coreKeys(wl *workload, t *tape) (lo, hi []core.Key) {
	lo = make([]core.Key, len(t.ops))
	hi = make([]core.Key, len(t.ops))
	prefix := func(k []byte) core.Key {
		var p core.Key
		for _, c := range k[:8] {
			p = p<<8 | core.Key(c)
		}
		return p
	}
	for i, o := range t.ops {
		switch {
		case wl.lib:
			lo[i] = libKey(o.id)
		case wl.ordered:
			lo[i] = prefix(t.key(i))
			if o.kind == opScan {
				hi[i] = prefix(t.scanHi(i))
			}
		default:
			lo[i] = core.Key(ascylib.HashBytes(t.key(i)))
		}
	}
	return lo, hi
}

// preloadedCoreSet builds the workload's structure and stores every
// preloaded id in it.
func preloadedCoreSet(wl *workload, seed uint64) (core.Set, error) {
	var opts []ascylib.Option
	if !wl.lib {
		opts = append(opts, ascylib.Capacity(serverCapacity))
	}
	s, err := ascylib.New(wl.algo, opts...)
	if err != nil {
		return nil, err
	}
	pre := sequentialTape(wl, opSet, 0, wl.preloaded())
	keys, _ := coreKeys(wl, pre)
	for _, id := range shuffledIDs(wl.preloaded(), seed) {
		s.Insert(keys[id], libValue(id))
	}
	return s, nil
}

// coreApply maps one tape op onto the core operations it ends in. On the
// library workload those are the paper's own: Search, Insert (read-only
// when the key is present, as ASCY3 prescribes), Remove. Over the wire a get
// is a Search and a scan the structure's ordered Range, but a set and a
// delete both reach the core as one Extended.Update — the call Map.Update
// makes under StringMap — which a structure either implements natively or
// gets from ascylib.Extend as Search, Remove, Insert.
//
// ctx is nil for the timed replay, which makes exactly those calls. The
// event count passes a perf.Ctx, and Update has no *Ctx entry point, so it
// replays an update as the instrumented Search, Remove, Insert sequence:
// the same work where Update is the fallback (the skip list), the
// instrumented equivalent where it is native (CLHT).
func coreApply(wl *workload, t *tape, s core.Set, ctx *perf.Ctx) (func(i int), error) {
	in, ok := s.(core.Instrumented)
	if !ok {
		return nil, fmt.Errorf("%s does not implement core.Instrumented", wl.algo)
	}
	ext := ascylib.Extend(s)
	ord, _ := ascylib.OrderedOf(s)
	lo, hi := coreKeys(wl, t)
	// A stored value always changes: the facade hands Update a fresh slot.
	replace := func(old core.Value, _ bool) (core.Value, bool) { return old + 1, true }
	drop := func(old core.Value, _ bool) (core.Value, bool) { return old, false }
	update := func(k core.Key, f core.UpdateFunc) {
		if ctx == nil {
			ext.Update(k, f)
			return
		}
		old, present := in.SearchCtx(ctx, k)
		if present {
			in.RemoveCtx(ctx, k)
		}
		if v, keep := f(old, present); keep {
			in.InsertCtx(ctx, k, v)
		}
	}
	return func(i int) {
		o := t.ops[i]
		switch o.kind {
		case opGet:
			v, _ := in.SearchCtx(ctx, lo[i])
			sink += uint64(v)
		case opScan:
			ord.Range(lo[i], hi[i], func(k core.Key, v core.Value) bool {
				sink += uint64(v)
				return true
			})
		case opDelete:
			if wl.lib {
				in.RemoveCtx(ctx, lo[i])
			} else {
				update(lo[i], drop)
			}
		case opSet, opSetExpiring:
			if wl.lib {
				in.InsertCtx(ctx, lo[i], libValue(o.id))
			} else {
				update(lo[i], replace)
			}
		}
	}, nil
}

// coreEvents replays the tape once through the *Ctx entry points of a
// freshly preloaded structure and returns the paper's Figure 3 variables
// per operation. Stores are the paper's: every write to shared memory,
// atomic ones included (perf.Ctx.Coherence), or a lock-free structure would
// report none. Single-threaded, so a seed repeats them exactly — given a
// fixed source for the skip lists' tower heights, which they draw from
// math/rand's global generator.
func coreEvents(wl *workload, t *tape, seed uint64) (map[string]float64, error) {
	rand.Seed(1) //nolint:staticcheck // the only way to fix a source the structures pick implicitly
	s, err := preloadedCoreSet(wl, seed)
	if err != nil {
		return nil, err
	}
	ctx := &perf.Ctx{}
	apply, err := coreApply(wl, t, s, ctx)
	if err != nil {
		return nil, err
	}
	for i := range t.ops {
		apply(i)
	}
	n := float64(len(t.ops))
	return map[string]float64{
		"core.stores_op":         float64(ctx.Coherence()) / n,
		"core.cas_fail_op":       float64(ctx.Count(perf.EvCASFail)) / n,
		"core.restarts_op":       float64(ctx.Count(perf.EvRestart)) / n,
		"core.parse_restarts_op": float64(ctx.Count(perf.EvParseRestart)) / n,
		"core.traversals_op":     float64(ctx.Count(perf.EvTraverse)) / n,
	}, nil
}

// runLadder measures every rung that exists for the workload and returns
// the per-layer values it can vouch for; rungs the workload does not cross
// are left out.
func runLadder(wl *workload, t *tape, seed uint64, tr *tracer) (map[string]float64, error) {
	m, err := coreEvents(wl, t, seed)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	// Rung: core.Set.
	set, err := preloadedCoreSet(wl, seed)
	if err != nil {
		return nil, err
	}
	apply, err := coreApply(wl, t, set, nil)
	if err != nil {
		return nil, err
	}
	coreCost := tr.replay("core.set", t, apply)
	m["core.set_ns_op"] = coreCost.nsOp
	m["core.set_allocs_op"] = coreCost.allocsOp
	if reuse, garbage, ok := recycleStats(set); ok {
		m["ssmem.reuse_ratio"], m["ssmem.garbage_end"] = reuse, garbage
	}
	if wl.lib {
		return m, nil
	}

	// Rung: ascylib.ShardedStringMap, the type server.Store holds, through
	// the byte-key entry points the store's own calls reduce to.
	newMap := ascylib.NewShardedStringMap[server.Item]
	if wl.ordered {
		newMap = ascylib.NewOrderedShardedStringMap[server.Item]
	}
	sm, err := newMap(wl.algo, wl.shards, ascylib.Capacity(serverCapacity))
	if err != nil {
		return nil, err
	}
	var item server.Item
	put := func(server.Item, bool) (server.Item, bool) { return item, true }
	drop := func(old server.Item, _ bool) (server.Item, bool) { return old, false }
	pre := sequentialTape(wl, opSet, 0, wl.preloaded())
	for i, o := range pre.ops {
		item = server.Item{Flags: flagsOf(o.id), Data: valueOf(o.id, wl.valueLen)}
		sm.UpdateBytes(pre.key(i), put)
	}
	emit := func(_ string, it server.Item) bool {
		sink += uint64(len(it.Data))
		return true
	}
	mapApply := func(i int) {
		o := t.ops[i]
		switch o.kind {
		case opGet:
			it, _ := sm.GetBytes(t.key(i))
			sink += uint64(len(it.Data))
		case opSet, opSetExpiring:
			item = server.Item{Flags: flagsOf(o.id), Data: valueOf(o.id, wl.valueLen)}
			sm.UpdateBytes(t.key(i), put)
		case opDelete:
			sm.UpdateBytes(t.key(i), drop)
		case opScan:
			lo, hi := t.key(i), t.scanHi(i)
			slo, shi := sm.OrderedShardSpan(lo, hi)
			for sh, left := slo, wl.scanLen; sh <= shi && left > 0; sh++ {
				left -= sm.ShardRangeBytes(sh, lo, hi, left, emit)
			}
		}
	}
	mapCost := tr.replay("ascylib.strmap", t, mapApply)
	m["ascylib.strmap_ns_op"] = mapCost.nsOp
	m["ascylib.strmap_self_ns_op"] = mapCost.nsOp - coreCost.nsOp
	m["ascylib.strmap_allocs_op"] = mapCost.allocsOp
	if wl.scanPct > 0 {
		scans := &tape{enc: t.enc}
		var at []int // index in t of each scan
		for i, o := range t.ops {
			if o.kind == opScan {
				at = append(at, i)
				scans.ops = append(scans.ops, o)
			}
		}
		c := tr.replay("ascylib.range", scans, func(i int) { mapApply(at[i]) })
		m["ascylib.range_ns_key"] = c.nsOp / float64(wl.scanLen)
	}
	if st := sm.RecycleStats(); st.Allocs > 0 {
		m["ssmem.reuse_ratio"], m["ssmem.garbage_end"] = st.ReuseRate(), float64(st.Garbage)
	}

	// Rung: server.Store under a Pin, one pin per W ops as one pipelined
	// batch gets in the server.
	st, err := server.NewStore(wl.algo, serverCapacity, true, wl.shards, wl.ordered)
	if err != nil {
		return nil, err
	}
	p := st.Pin()
	for i, o := range pre.ops {
		st.Set(p, pre.key(i), flagsOf(o.id), 0, valueOf(o.id, wl.valueLen))
	}
	p.Unpin()
	inBatch := 0
	p = st.Pin()
	storeCost := tr.replay("server.store", t, func(i int) {
		if inBatch == wl.window {
			p.Unpin()
			p = st.Pin()
			inBatch = 0
		}
		inBatch++
		o := t.ops[i]
		switch o.kind {
		case opGet:
			it, _ := st.Get(p, t.key(i))
			sink += uint64(len(it.Data))
		case opSet:
			st.Set(p, t.key(i), flagsOf(o.id), 0, valueOf(o.id, wl.valueLen))
		case opSetExpiring:
			st.Set(p, t.key(i), flagsOf(o.id), 2, valueOf(o.id, wl.valueLen))
		case opDelete:
			st.Delete(p, t.key(i))
		case opScan:
			st.RangeScan(p, t.key(i), t.scanHi(i), wl.scanLen, emit)
		}
	})
	p.Unpin()
	m["server.store_ns_op"] = storeCost.nsOp
	m["server.store_self_ns_op"] = storeCost.nsOp - mapCost.nsOp
	m["server.store_allocs_op"] = storeCost.allocsOp

	// Rung: server.ReadBatchInto over the encoded tape, through a reader
	// sized like a connection's, at most W requests per batch as the
	// closed loop allows.
	parseCost, err := replayParse(wl, t, tr)
	if err != nil {
		return nil, err
	}
	m["server.protocol_parse_ns_op"] = parseCost.nsOp
	m["server.protocol_allocs_op"] = parseCost.allocsOp

	// Rung: cluster.Router, the client-side routing step.
	if wl.route {
		r := cluster.NewRouter(4)
		c := tr.replay("cluster.route", t, func(i int) { sink += uint64(r.NodeOfBytes(t.key(i))) })
		m["cluster.route_ns_op"] = c.nsOp
	}

	runtime.ReadMemStats(&after)
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["runtime.heap_inuse_mb"] = float64(after.HeapInuse) / (1 << 20)
	return m, nil
}

// replayParse is the parse rung: the same passes and chunk spans as
// tracer.replay, but the unit of work is a batch, so chunk edges fall on
// the first batch boundary at or after chunkOps requests.
func replayParse(wl *workload, t *tape, tr *tracer) (rungCost, error) {
	var (
		batch         server.Batch
		before, after runtime.MemStats
		busy          int64
		ops           int
	)
	src := bytes.NewReader(t.enc)
	br := bufio.NewReaderSize(src, 64<<10)
	root := 0
	for p := 0; p <= replayPasses; p++ { // pass 0 is the untimed warm-up
		if p == 1 {
			root = tr.begin("server.protocol_parse.replay", 0)
			runtime.ReadMemStats(&before)
		}
		src.Reset(t.enc)
		br.Reset(src)
		for done := 0; done < len(t.ops); {
			t0 := nanotime()
			chunk := 0
			for chunk < chunkOps && done+chunk < len(t.ops) {
				n, err := server.ReadBatchInto(br, 0, wl.window, &batch)
				if err != nil {
					return rungCost{}, fmt.Errorf("parse rung: %w", err)
				}
				for i := range batch.Entries[:n] {
					if e := batch.Entries[i].Err; e != nil {
						return rungCost{}, fmt.Errorf("parse rung: the tape does not parse: %s", e.Resp)
					}
				}
				chunk += n
			}
			t1 := nanotime()
			done += chunk
			if p > 0 {
				busy += t1 - t0
				ops += chunk
				tr.add("server.protocol_parse", root, t0, t1, chunk)
			}
		}
	}
	runtime.ReadMemStats(&after)
	tr.end(root, ops)
	return rungCost{
		nsOp:     float64(busy) / float64(ops),
		allocsOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
	}, nil
}
