package hashtable

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/pad"
	"repro/internal/perf"
)

// nStripes is the paper's lock count for the java table ("we use 512 locks").
const nStripes = 512

// jNode is an immutable chain node: key, val and next never change after
// publication, so lock-free readers always see consistent chains. Removal
// copies the chain prefix instead of mutating, exactly like the classic
// ConcurrentHashMap segments.
type jNode struct {
	key  core.Key
	val  core.Value
	next *jNode
}

// jTable is one generation of the bucket array. Resizing installs a new
// generation; readers pick up whichever generation they load.
type jTable struct {
	buckets []atomic.Pointer[jNode]
	mask    uint64
}

// Java is the java hash table of Table 1: a fixed set of 512 stripe locks
// protects updates, reads are lock-free over immutable chains, and the table
// resizes by doubling. The paper credits its fine-grained (per-region)
// resizing for spreading memory across NUMA nodes; here the analogous
// property is that resize copies run stripe by stripe.
type Java struct {
	table        atomic.Pointer[jTable]
	stripes      [nStripes]paddedLock
	counts       [nStripes]pad.Padded // per-stripe element counts (atomic)
	readOnlyFail bool
	resizing     atomic.Bool
}

type paddedLock struct {
	l locks.TAS
	_ [pad.CacheLineSize - 4]byte
}

// NewJava builds a table with cfg.Buckets initial buckets (power-of-two).
func NewJava(cfg core.Config) *Java {
	n := pow2(cfg.Buckets)
	if n < nStripes {
		n = nStripes
	}
	t := &jTable{buckets: make([]atomic.Pointer[jNode], n), mask: uint64(n - 1)}
	j := &Java{readOnlyFail: cfg.ReadOnlyFail}
	j.table.Store(t)
	return j
}

func (j *Java) stripe(h uint64) *locks.TAS {
	return &j.stripes[h&(nStripes-1)].l
}

func findJ(head *jNode, k core.Key, c *perf.Ctx) (*jNode, bool) {
	for n := head; n != nil; n = n.next {
		c.Inc(perf.EvTraverse)
		if n.key == k {
			return n, true
		}
	}
	return nil, false
}

// SearchCtx implements core.Instrumented. Lock-free: one atomic bucket load
// plus an immutable chain walk.
func (j *Java) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	t := j.table.Load()
	h := mix(k)
	if n, ok := findJ(t.buckets[h&t.mask].Load(), k, c); ok {
		return n.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (j *Java) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	h := mix(k)
	if j.readOnlyFail {
		// ASCY3: the paper notes that enabling it on java "requires an
		// additional search... before starting with the code of the
		// update" — beneficial overall, small cost on success.
		c.ParseBegin()
		t := j.table.Load()
		_, dup := findJ(t.buckets[h&t.mask].Load(), k, c)
		c.ParseEnd()
		if dup {
			return false
		}
	}
	lk := j.stripe(h)
	lk.Lock()
	c.Inc(perf.EvLock)
	t := j.table.Load() // reload under the lock: resize may have run
	b := &t.buckets[h&t.mask]
	head := b.Load()
	if _, dup := findJ(head, k, c); dup {
		lk.Unlock()
		return false
	}
	b.Store(&jNode{key: k, val: v, next: head})
	c.Inc(perf.EvStore)
	cnt := atomic.AddUint64(&j.counts[h&(nStripes-1)].Value, 1)
	lk.Unlock()
	// Resize check outside the stripe lock; cheap heuristic on the
	// stripe's own share of the load factor.
	if cnt*nStripes > uint64(len(t.buckets))*3 {
		j.resize(t)
	}
	return true
}

// RemoveCtx implements core.Instrumented.
func (j *Java) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	h := mix(k)
	if j.readOnlyFail {
		c.ParseBegin()
		t := j.table.Load()
		_, in := findJ(t.buckets[h&t.mask].Load(), k, c)
		c.ParseEnd()
		if !in {
			return 0, false
		}
	}
	lk := j.stripe(h)
	lk.Lock()
	c.Inc(perf.EvLock)
	t := j.table.Load()
	b := &t.buckets[h&t.mask]
	head := b.Load()
	target, in := findJ(head, k, c)
	if !in {
		lk.Unlock()
		return 0, false
	}
	// Rebuild the prefix above the removed node; the suffix is shared.
	newHead := target.next
	for n := head; n != target; n = n.next {
		newHead = &jNode{key: n.key, val: n.val, next: newHead}
		c.Inc(perf.EvStore)
	}
	b.Store(newHead)
	c.Inc(perf.EvStore)
	atomic.AddUint64(&j.counts[h&(nStripes-1)].Value, ^uint64(0))
	lk.Unlock()
	return target.val, true
}

// resize doubles the bucket array. It takes every stripe lock in order (so
// all updates quiesce), rebuilds, installs, and releases. Readers never
// block: they keep using the old generation until the new one is published.
func (j *Java) resize(old *jTable) {
	if !j.resizing.CompareAndSwap(false, true) {
		return // someone else is resizing
	}
	defer j.resizing.Store(false)
	if j.table.Load() != old {
		return // already resized past this generation
	}
	for i := range j.stripes {
		j.stripes[i].l.Lock()
	}
	cur := j.table.Load()
	if cur == old {
		n := len(cur.buckets) * 2
		nt := &jTable{buckets: make([]atomic.Pointer[jNode], n), mask: uint64(n - 1)}
		for i := range cur.buckets {
			for node := cur.buckets[i].Load(); node != nil; node = node.next {
				h := mix(node.key) & nt.mask
				nt.buckets[h].Store(&jNode{key: node.key, val: node.val, next: nt.buckets[h].Load()})
			}
		}
		j.table.Store(nt)
	}
	for i := range j.stripes {
		j.stripes[i].l.Unlock()
	}
}

// Search looks up k.
func (j *Java) Search(k core.Key) (core.Value, bool) { return j.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (j *Java) Insert(k core.Key, v core.Value) bool { return j.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (j *Java) Remove(k core.Key) (core.Value, bool) { return j.RemoveCtx(nil, k) }

// Size implements core.Set: the number of elements ForEach yields.
func (j *Java) Size() int { return core.Count(j) }

// Buckets reports the current bucket-array size (tests observe resizing).
func (j *Java) Buckets() int { return len(j.table.Load().buckets) }

// ForEach implements core.Set: a read-only sweep of one table
// generation's immutable chains, with quiescent-snapshot semantics.
func (j *Java) ForEach(yield func(core.Key, core.Value) bool) {
	t := j.table.Load()
	for i := range t.buckets {
		for node := t.buckets[i].Load(); node != nil; node = node.next {
			if !yield(node.key, node.val) {
				return
			}
		}
	}
}
