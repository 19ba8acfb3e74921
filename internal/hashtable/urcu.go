package hashtable

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/pad"
	"repro/internal/perf"
	"repro/internal/rcu"
	"repro/internal/ssmem"
)

// uNode is an RCU-protected chain node. next is atomic because readers
// traverse while writers unlink; key and val are written only before
// publication (or after a full grace period / SSMEM epoch, for recycled
// nodes).
type uNode struct {
	key  core.Key
	val  core.Value
	next atomic.Pointer[uNode]
}

// URCU is the urcu hash table of Table 1: searches run lock-free inside RCU
// read-side critical sections; updates take a per-bucket lock; and — the
// defining cost — "after each successful removal, it waits for all ongoing
// operations to complete before freeing the memory".
//
// With waitGP == false this is the paper's re-engineered variant (§3): the
// same reader-visible structure, but memory is handed to SSMEM's epoch-based
// collector instead of synchronously waiting for a grace period, moving the
// update path's store profile close to the sequential algorithm (ASCY4).
type URCU struct {
	buckets []uBucket
	mask    uint64
	dom     *rcu.Domain
	waitGP  bool

	// pool is the SSMEM side (urcu-ssmem only): per-goroutine epoch
	// allocators over one collector, the pattern ssmem.Pool centralizes.
	// No other structure in the library recycles its nodes.
	pool *ssmem.Pool[uNode]
}

type uBucket struct {
	head atomic.Pointer[uNode]
	lock locks.TAS
	_    [pad.CacheLineSize - 16]byte
}

// NewURCU builds a table with cfg.Buckets buckets. waitGP selects the
// original (grace-period-waiting) behaviour; false selects urcu-ssmem.
func NewURCU(cfg core.Config, waitGP bool) *URCU {
	n := pow2(cfg.Buckets)
	u := &URCU{
		buckets: make([]uBucket, n),
		mask:    uint64(n - 1),
		dom:     rcu.NewDomain(),
		waitGP:  waitGP,
	}
	if !waitGP {
		u.pool = ssmem.NewPool[uNode](0)
	}
	return u
}

// RecycleStats implements core.Recycler; zero for the grace-period variant.
func (u *URCU) RecycleStats() ssmem.Stats {
	if u.pool == nil {
		return ssmem.Stats{}
	}
	return u.pool.Stats()
}

// SearchCtx implements core.Instrumented. The chain walk happens inside a
// read-side critical section: an RCU one in the original, an SSMEM epoch in
// the re-engineered variant (which is how freed nodes stay safe to recycle
// without the remover ever waiting).
func (u *URCU) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	if u.waitGP {
		rd := u.dom.ReadLock()
		defer rd.Unlock()
		return u.find(c, k)
	}
	a := u.pool.Get()
	a.OpStart()
	v, ok := u.find(c, k)
	a.OpEnd()
	u.pool.Put(a)
	return v, ok
}

func (u *URCU) find(c *perf.Ctx, k core.Key) (core.Value, bool) {
	b := &u.buckets[mix(k)&u.mask]
	for n := b.head.Load(); n != nil; n = n.next.Load() {
		c.Inc(perf.EvTraverse)
		if n.key == k {
			return n.val, true
		}
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (u *URCU) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	b := &u.buckets[mix(k)&u.mask]
	b.lock.Lock()
	c.Inc(perf.EvLock)
	for n := b.head.Load(); n != nil; n = n.next.Load() {
		c.Inc(perf.EvTraverse)
		if n.key == k {
			b.lock.Unlock()
			return false
		}
	}
	var node *uNode
	if u.waitGP {
		node = &uNode{key: k, val: v}
	} else {
		// urcu-ssmem recycles nodes through the epoch allocator.
		a := u.pool.Get()
		a.OpStart()
		node = a.Alloc()
		a.OpEnd()
		u.pool.Put(a)
		node.key, node.val = k, v
	}
	node.next.Store(b.head.Load())
	b.head.Store(node)
	c.Inc(perf.EvStore)
	b.lock.Unlock()
	return true
}

// RemoveCtx implements core.Instrumented.
func (u *URCU) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	b := &u.buckets[mix(k)&u.mask]
	b.lock.Lock()
	c.Inc(perf.EvLock)
	var pred *uNode
	for n := b.head.Load(); n != nil; n = n.next.Load() {
		c.Inc(perf.EvTraverse)
		if n.key == k {
			succ := n.next.Load()
			if pred == nil {
				b.head.Store(succ)
			} else {
				pred.next.Store(succ)
			}
			c.Inc(perf.EvStore)
			v := n.val
			b.lock.Unlock()
			if u.waitGP {
				// The URCU contract: block until every reader
				// that might hold n has left its critical
				// section. This wait is what Figure 2b charges
				// the urcu table for.
				u.dom.Synchronize()
				c.Inc(perf.EvWait)
			} else {
				// ASCY4 variant: stamp the node with SSMEM
				// epochs; reuse happens once provably safe,
				// with no waiting on this path.
				a := u.pool.Get()
				a.OpStart()
				a.Free(n)
				a.OpEnd()
				u.pool.Put(a)
			}
			return v, true
		}
		pred = n
	}
	b.lock.Unlock()
	return 0, false
}

// Search looks up k.
func (u *URCU) Search(k core.Key) (core.Value, bool) { return u.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (u *URCU) Insert(k core.Key, v core.Value) bool { return u.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (u *URCU) Remove(k core.Key) (core.Value, bool) { return u.RemoveCtx(nil, k) }

// Size implements core.Set: the number of elements ForEach yields.
func (u *URCU) Size() int { return core.Count(u) }

// ForEach implements core.Set. Like every read in this table, the sweep
// runs inside a read-side critical section — an RCU one in the original, an
// SSMEM epoch in the re-engineered variant — because removed nodes are
// recycled and are only safe to read from inside one. Each bucket is its own
// section so yield never executes with the epoch pinned.
func (u *URCU) ForEach(yield func(core.Key, core.Value) bool) {
	var batch []uNode
	for i := range u.buckets {
		batch = batch[:0]
		if u.waitGP {
			rd := u.dom.ReadLock()
			for node := u.buckets[i].head.Load(); node != nil; node = node.next.Load() {
				batch = append(batch, uNode{key: node.key, val: node.val})
			}
			rd.Unlock()
		} else {
			a := u.pool.Get()
			a.OpStart()
			for node := u.buckets[i].head.Load(); node != nil; node = node.next.Load() {
				batch = append(batch, uNode{key: node.key, val: node.val})
			}
			a.OpEnd()
			u.pool.Put(a)
		}
		for j := range batch {
			if !yield(batch[j].key, batch[j].val) {
				return
			}
		}
	}
}
