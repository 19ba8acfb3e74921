// Package hashtable implements the hash-table algorithms of Table 1: chained
// tables built from one linked list per bucket (coupling, pugh, lazy, copy,
// harris), a ConcurrentHashMap-style striped-lock table (java), a TBB-style
// reader-writer-lock table (tbb), and the URCU table together with the
// paper's ASCY4 re-engineering of it (urcu-ssmem, §3).
//
// The "-no" variants disable ASCY3 (read-only failed updates); Figure 6
// measures exactly that difference.
package hashtable

import (
	"repro/internal/core"
	"repro/internal/linkedlist"
	"repro/internal/perf"
)

// mix spreads the key bits so that power-of-two masking indexes well even on
// dense integer key ranges (the workloads use [1..2N]).
func mix(k core.Key) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// pow2 rounds n up to a power of two (minimum 1).
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Chained is a fixed-size bucket array with one list per bucket — the shape
// of the paper's coupling/pugh/lazy/copy/harris hash tables. The per-bucket
// structure provides all synchronization; the bucket array is immutable.
type Chained struct {
	buckets []core.Instrumented
	mask    uint64
}

// NewChained builds a table of cfg.Buckets (rounded up to a power of two)
// buckets, with each bucket created by newBucket.
func NewChained(cfg core.Config, newBucket func() core.Instrumented) *Chained {
	n := pow2(cfg.Buckets)
	t := &Chained{buckets: make([]core.Instrumented, n), mask: uint64(n - 1)}
	for i := range t.buckets {
		t.buckets[i] = newBucket()
	}
	return t
}

func (t *Chained) bucket(k core.Key) core.Instrumented {
	return t.buckets[mix(k)&t.mask]
}

// SearchCtx implements core.Instrumented.
func (t *Chained) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	return t.bucket(k).SearchCtx(c, k)
}

// InsertCtx implements core.Instrumented.
func (t *Chained) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	return t.bucket(k).InsertCtx(c, k, v)
}

// RemoveCtx implements core.Instrumented.
func (t *Chained) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	return t.bucket(k).RemoveCtx(c, k)
}

// Search looks up k.
func (t *Chained) Search(k core.Key) (core.Value, bool) { return t.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (t *Chained) Insert(k core.Key, v core.Value) bool { return t.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (t *Chained) Remove(k core.Key) (core.Value, bool) { return t.RemoveCtx(nil, k) }

// Size implements core.Set: the number of elements ForEach yields.
func (t *Chained) Size() int { return core.Count(t) }

// ForEach implements core.Set by delegating to the per-bucket lists.
// Enumeration order is by bucket, not by key.
func (t *Chained) ForEach(yield func(core.Key, core.Value) bool) {
	stop := false
	for _, b := range t.buckets {
		b.ForEach(func(k core.Key, v core.Value) bool {
			if !yield(k, v) {
				stop = true
			}
			return !stop
		})
		if stop {
			return
		}
	}
}

func register(name string, class core.Class, desc string, safe, ascy bool, f func(cfg core.Config) core.Set) {
	core.Register(core.Algorithm{
		Name:      "ht-" + name,
		Structure: core.HashTable,
		Class:     class,
		Desc:      desc,
		Safe:      safe,
		ASCY:      ascy,
		New:       f,
	})
}

func chainedOver(list func(core.Config) core.Instrumented) func(core.Config) core.Set {
	return func(cfg core.Config) core.Set {
		// Per-bucket chains are short; the bucket structures inherit
		// the table's ReadOnlyFail setting.
		return NewChained(cfg, func() core.Instrumented { return list(cfg) })
	}
}

func init() {
	register("async", core.Seq,
		"sequential chained hash table run unsynchronized; the async upper bound",
		false, false,
		chainedOver(func(cfg core.Config) core.Instrumented { return linkedlist.NewSeq(cfg) }))
	register("coupling", core.FullyLockBased,
		"one lock-coupling list per bucket",
		true, false,
		chainedOver(func(cfg core.Config) core.Instrumented { return linkedlist.NewCoupling(cfg) }))
	register("pugh", core.LockBased,
		"one pugh list per bucket",
		true, true,
		chainedOver(func(cfg core.Config) core.Instrumented { return linkedlist.NewPugh(cfg) }))
	register("pugh-no", core.LockBased,
		"pugh table with ASCY3 disabled",
		true, false,
		func(cfg core.Config) core.Set {
			cfg.ReadOnlyFail = false
			return chainedOver(func(cfg core.Config) core.Instrumented { return linkedlist.NewPugh(cfg) })(cfg)
		})
	register("lazy", core.LockBased,
		"one lazy list per bucket",
		true, true,
		chainedOver(func(cfg core.Config) core.Instrumented { return linkedlist.NewLazy(cfg) }))
	register("lazy-no", core.LockBased,
		"lazy table with ASCY3 disabled",
		true, false,
		func(cfg core.Config) core.Set {
			cfg.ReadOnlyFail = false
			return chainedOver(func(cfg core.Config) core.Instrumented { return linkedlist.NewLazy(cfg) })(cfg)
		})
	register("copy", core.LockBased,
		"one copy-on-write array per bucket",
		true, false,
		chainedOver(func(cfg core.Config) core.Instrumented { return linkedlist.NewCopy(cfg) }))
	register("copy-no", core.LockBased,
		"copy table with ASCY3 disabled",
		true, false,
		func(cfg core.Config) core.Set {
			cfg.ReadOnlyFail = false
			return chainedOver(func(cfg core.Config) core.Instrumented { return linkedlist.NewCopy(cfg) })(cfg)
		})
	register("harris", core.LockFree,
		"one harris-opt list per bucket (Table 1: harris hash table)",
		true, true,
		chainedOver(func(cfg core.Config) core.Instrumented { return linkedlist.NewHarris(cfg, true) }))
	register("java", core.LockBased,
		"ConcurrentHashMap-style: 512 lock stripes, lock-free reads on immutable chains, resizing",
		true, false, func(cfg core.Config) core.Set { return NewJava(cfg) })
	register("java-no", core.LockBased,
		"java table with ASCY3 disabled: failed updates still lock their stripe",
		true, false, func(cfg core.Config) core.Set { cfg.ReadOnlyFail = false; return NewJava(cfg) })
	register("tbb", core.FullyLockBased,
		"TBB-style: striped reader-writer locks; even searches acquire the read side",
		true, false, func(cfg core.Config) core.Set { return NewTBB(cfg) })
	register("urcu", core.LockBased,
		"URCU 0.8-style: lock-free reads under RCU; each successful removal waits for a grace period",
		true, false, func(cfg core.Config) core.Set { return NewURCU(cfg, true) })
	register("urcu-ssmem", core.LockBased,
		"the paper's ASCY4 re-engineering of urcu: SSMEM epochs replace the blocking grace period",
		true, true, func(cfg core.Config) core.Set { return NewURCU(cfg, false) })
}
