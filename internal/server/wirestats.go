package server

import (
	"sync/atomic"

	"repro/internal/pad"
)

// wireStats is one connection's private share of the server's wire counters.
//
// Through PR 6 these counters were store-global atomics on the Server —
// every get on every connection bumped cmd_get and get_hits on the same two
// cache lines, so with N cores serving N connections the hottest stores in
// the request loop were cross-core line transfers that grew linearly with
// the request rate: a textbook serialization-by-bookkeeping bottleneck
// (ASCY4's deferred-work tax, paid on every operation). The fix is the same
// move the store made for value pools: shard by the natural unit of
// parallelism. Each connection leases one wireStats slot for its lifetime;
// all hot-path counter writes land in the slot, whose leading/trailing pads
// keep it off every other connection's lines, and the rare readers (the
// stats command, tests) aggregate across slots on demand.
//
// The fields are still atomics — each slot has exactly one writer, but
// aggregation reads run concurrently with it, and uncontended atomic adds on
// an exclusively-held line cost roughly a plain store. Slots are pooled:
// released on connection close and reused by the next connection, so the
// slot table is bounded by peak concurrent connections, and counters are
// cumulative across the connections that shared a slot — exactly the
// server-lifetime semantics the global counters had.
type wireStats struct {
	_ pad.CacheLinePad

	n         [numWireCounters]atomic.Uint64
	batchHist [batchHistBuckets]atomic.Uint64

	_ pad.CacheLinePad
}

// wireCounter indexes one wire counter in wireStats.n. A counter is its
// constant here and its name in wireCounterNames; Stats renders the
// counters before cBatches in this order, and the batch counters next to
// the batch-depth histogram.
type wireCounter int

const (
	cBytesRead wireCounter = iota
	cBytesWritten
	cCmdGet
	cCmdSet
	cCmdDelete
	cCmdIncr
	cCmdDecr
	cCmdFlush
	cCmdMRange
	cCmdMMin
	cCmdMMax
	cCmdMSnap
	cRangeKeys
	cGetHits
	cGetMisses
	cDeleteHits
	cDeleteMisses
	cIncrHits
	cIncrMisses
	cDecrHits
	cDecrMisses
	cCasHits
	cCasMisses
	cCasBadval
	cProtoErrors
	cBatches
	cCmdBatched
	numWireCounters
)

// wireCounterNames is each counter's name in the stats output.
var wireCounterNames = [numWireCounters]string{
	cBytesRead:    "bytes_read",
	cBytesWritten: "bytes_written",
	cCmdGet:       "cmd_get",
	cCmdSet:       "cmd_set",
	cCmdDelete:    "cmd_delete",
	cCmdIncr:      "cmd_incr",
	cCmdDecr:      "cmd_decr",
	cCmdFlush:     "cmd_flush",
	cCmdMRange:    "cmd_mrange",
	cCmdMMin:      "cmd_mmin",
	cCmdMMax:      "cmd_mmax",
	cCmdMSnap:     "cmd_msnap",
	cRangeKeys:    "range_keys_returned",
	cGetHits:      "get_hits",
	cGetMisses:    "get_misses",
	cDeleteHits:   "delete_hits",
	cDeleteMisses: "delete_misses",
	cIncrHits:     "incr_hits",
	cIncrMisses:   "incr_misses",
	cDecrHits:     "decr_hits",
	cDecrMisses:   "decr_misses",
	cCasHits:      "cas_hits",
	cCasMisses:    "cas_misses",
	cCasBadval:    "cas_badval",
	cProtoErrors:  "protocol_errors",
	cBatches:      "batches",
	cCmdBatched:   "cmd_batched",
}

// wireTotals is the aggregated, plain-value form of the counters — what the
// stats command renders.
type wireTotals struct {
	n         [numWireCounters]uint64
	batchHist [batchHistBuckets]uint64
}

// addInto accumulates the slot's counters into t.
func (w *wireStats) addInto(t *wireTotals) {
	for i := range w.n {
		t.n[i] += w.n[i].Load()
	}
	for i := range w.batchHist {
		t.batchHist[i] += w.batchHist[i].Load()
	}
}

// acquireWireStats leases a counter slot for one connection: a parked slot
// when one is free, a fresh one otherwise (the registry is append-only, so
// aggregation never misses counts from live or retired slots). With the
// globalWireStats reference mode on, every connection shares slot 0 — the
// exact pre-sharding behavior, kept as the differential-test baseline.
func (s *Server) acquireWireStats() *wireStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if s.cfg.globalWireStats {
		return s.statsAll[0]
	}
	if n := len(s.statsFree); n > 0 {
		ws := s.statsFree[n-1]
		s.statsFree[n-1] = nil
		s.statsFree = s.statsFree[:n-1]
		return ws
	}
	ws := &wireStats{}
	s.statsAll = append(s.statsAll, ws)
	return ws
}

// releaseWireStats parks a connection's slot for reuse. Counters are NOT
// reset — they are the server's history, summed on aggregation.
func (s *Server) releaseWireStats(ws *wireStats) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if s.cfg.globalWireStats {
		return
	}
	s.statsFree = append(s.statsFree, ws)
}

// wireTotals sums every slot ever leased.
func (s *Server) wireTotals() wireTotals {
	s.statsMu.Lock()
	all := s.statsAll
	s.statsMu.Unlock()
	var t wireTotals
	for _, ws := range all {
		ws.addInto(&t)
	}
	return t
}
