// Package clht implements CLHT, the Cache-Line Hash Table designed from
// scratch with ASCY in the paper (§6.1), in its lock-based (CLHT-LB) and
// lock-free (CLHT-LF) variants.
//
// CLHT captures the basic idea behind ASCY: avoid cache-line transfers.
// Each bucket is exactly one 64-byte cache line holding eight words:
//
//	[ concurrency | k1 k2 k3 | v1 v2 v3 | next ]
//
// The concurrency word is a lock (LB) or a snapshot_t (LF); the middle six
// words are three in-place key/value pairs; next links overflow buckets.
// Because the cache line is the granularity of coherence, an operation that
// touches only its bucket's line completes with at most one cache-line
// transfer. Key 0 marks an empty slot, which is why the library reserves
// key 0 (workload keys are drawn from [1..2N] as in the paper).
package clht

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pad"
)

// entriesPerBucket is the paper's three key/value pairs per cache line.
const entriesPerBucket = 3

// bucket is one 64-byte cache line: 1 concurrency word, 3 keys, 3 values,
// 1 next pointer.
type bucket struct {
	conc atomic.Uint64
	key  [entriesPerBucket]atomic.Uint64
	val  [entriesPerBucket]atomic.Uint64
	next atomic.Pointer[bucket]
}

// growShare sets CLHT-LB's growth point: a table doubles once the overflow
// buckets linked into it number more than 1/2^growShare of its buckets.
// 1/16 of the buckets overflow at about 1.5 keys per bucket.
const growShare = 4

// table is one generation of the bucket array (LB resizing swaps
// generations; LF uses a single fixed generation).
type table struct {
	buckets []bucket
	mask    uint64
	// growAt is the overflow count past which CLHT-LB resizes this
	// generation; CLHT-LF never reads it or overflow.
	growAt int64
	// The pad keeps overflow, written by every insert that links a
	// bucket, off the line holding buckets and mask, which every search
	// reads.
	_ pad.CacheLinePad
	// overflow counts the overflow buckets linked into this generation.
	// They are never unlinked, so it only grows.
	overflow atomic.Int64
}

func newTable(n int) *table {
	return &table{buckets: make([]bucket, n), mask: uint64(n - 1), growAt: int64(n >> growShare)}
}

// mix spreads key bits before masking, as in internal/hashtable.
func mix(k core.Key) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func init() {
	core.Register(core.Algorithm{
		Name:      "ht-clht-lb",
		Structure: core.HashTable,
		Class:     core.LockBased,
		Desc:      "CLHT-LB: cache-line buckets, in-place updates under a per-bucket lock; at most one line transfer per operation",
		Safe:      true,
		ASCY:      true,
		New:       func(cfg core.Config) core.Set { return NewLB(cfg) },
	})
	core.Register(core.Algorithm{
		Name:      "ht-clht-lf",
		Structure: core.HashTable,
		Class:     core.LockFree,
		Desc:      "CLHT-LF: cache-line buckets with a snapshot_t concurrency word; all slot transitions are single CASes",
		Safe:      true,
		ASCY:      true,
		New:       func(cfg core.Config) core.Set { return NewLF(cfg) },
	})
}
