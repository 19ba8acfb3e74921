package hashtable

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/perf"
)

// TBB models Intel TBB's concurrent_hash_map as described in Table 1: a
// fully lock-based table whose operations — including searches — take
// striped reader-writer locks, with resizing support. Acquiring even the
// read side of an RW lock writes the lock word, so searches are not ASCY1;
// the paper's Figure 2b shows the resulting scalability gap on read-heavy
// workloads, and this port preserves that behaviour by construction.
type TBB struct {
	mu       [nStripes]paddedRW
	table    atomic.Pointer[tbbTable]
	counts   [nStripes]pad.Padded
	resizing atomic.Bool
}

type paddedRW struct {
	l sync.RWMutex
	_ [pad.CacheLineSize - 24]byte
}

type tbbNode struct {
	key  core.Key
	val  core.Value
	next *tbbNode
}

type tbbTable struct {
	buckets []*tbbNode
	mask    uint64
}

// NewTBB builds a table with cfg.Buckets initial buckets.
func NewTBB(cfg core.Config) *TBB {
	n := pow2(cfg.Buckets)
	if n < nStripes {
		n = nStripes
	}
	t := &TBB{}
	t.table.Store(&tbbTable{buckets: make([]*tbbNode, n), mask: uint64(n - 1)})
	return t
}

// SearchCtx implements core.Instrumented. Takes the stripe's read lock — a
// shared-memory RMW — before touching the chain.
func (t *TBB) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	h := mix(k)
	mu := &t.mu[h&(nStripes-1)].l
	mu.RLock()
	c.Inc(perf.EvLock)
	defer mu.RUnlock()
	tab := t.table.Load()
	for n := tab.buckets[h&tab.mask]; n != nil; n = n.next {
		c.Inc(perf.EvTraverse)
		if n.key == k {
			return n.val, true
		}
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (t *TBB) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	h := mix(k)
	mu := &t.mu[h&(nStripes-1)].l
	mu.Lock()
	c.Inc(perf.EvLock)
	tab := t.table.Load()
	i := h & tab.mask
	for n := tab.buckets[i]; n != nil; n = n.next {
		c.Inc(perf.EvTraverse)
		if n.key == k {
			mu.Unlock()
			return false
		}
	}
	tab.buckets[i] = &tbbNode{key: k, val: v, next: tab.buckets[i]}
	c.Inc(perf.EvStore)
	cnt := atomic.AddUint64(&t.counts[h&(nStripes-1)].Value, 1)
	mu.Unlock()
	if cnt*nStripes > uint64(len(tab.buckets))*3 {
		t.resize(tab)
	}
	return true
}

// RemoveCtx implements core.Instrumented.
func (t *TBB) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	h := mix(k)
	mu := &t.mu[h&(nStripes-1)].l
	mu.Lock()
	c.Inc(perf.EvLock)
	defer mu.Unlock()
	tab := t.table.Load()
	i := h & tab.mask
	for pp := &tab.buckets[i]; *pp != nil; pp = &(*pp).next {
		c.Inc(perf.EvTraverse)
		if n := *pp; n.key == k {
			*pp = n.next
			c.Inc(perf.EvStore)
			atomic.AddUint64(&t.counts[h&(nStripes-1)].Value, ^uint64(0))
			return n.val, true
		}
	}
	return 0, false
}

// resize doubles the bucket array under all write locks.
func (t *TBB) resize(old *tbbTable) {
	if !t.resizing.CompareAndSwap(false, true) {
		return
	}
	defer t.resizing.Store(false)
	if t.table.Load() != old {
		return
	}
	for i := range t.mu {
		t.mu[i].l.Lock()
	}
	cur := t.table.Load()
	if cur == old {
		n := len(cur.buckets) * 2
		nt := &tbbTable{buckets: make([]*tbbNode, n), mask: uint64(n - 1)}
		for i := range cur.buckets {
			for node := cur.buckets[i]; node != nil; node = node.next {
				h := mix(node.key) & nt.mask
				nt.buckets[h] = &tbbNode{key: node.key, val: node.val, next: nt.buckets[h]}
			}
		}
		t.table.Store(nt)
	}
	for i := range t.mu {
		t.mu[i].l.Unlock()
	}
}

// Search looks up k.
func (t *TBB) Search(k core.Key) (core.Value, bool) { return t.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (t *TBB) Insert(k core.Key, v core.Value) bool { return t.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (t *TBB) Remove(k core.Key) (core.Value, bool) { return t.RemoveCtx(nil, k) }

// Size implements core.Set: the number of elements ForEach yields.
func (t *TBB) Size() int { return core.Count(t) }

// ForEach implements core.Set. Bucket index and stripe index are both
// power-of-two masks of the same hash, so bucket i is guarded by stripe
// i&(nStripes-1): each bucket's chain is copied out under its stripe's read
// lock and yielded unlocked (yield must not write the table's stripe being
// scanned anyway — so, symmetrically with the other fully-lock-based scans,
// yield must not call back into the table).
func (t *TBB) ForEach(yield func(core.Key, core.Value) bool) {
	tab := t.table.Load()
	var batch []tbbNode
	for i := range tab.buckets {
		mu := &t.mu[uint64(i)&(nStripes-1)].l
		mu.RLock()
		batch = batch[:0]
		for node := tab.buckets[i]; node != nil; node = node.next {
			batch = append(batch, *node)
		}
		mu.RUnlock()
		for j := range batch {
			if !yield(batch[j].key, batch[j].val) {
				return
			}
		}
	}
}
