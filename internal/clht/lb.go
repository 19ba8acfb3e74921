package clht

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/perf"
)

// LB is CLHT-LB (§6.1): the bucket's concurrency word is a spinlock;
// updates search first (ASCY3), then lock and modify the pair in place.
// Searches never synchronize: they read each pair with the paper's atomic
// snapshot (val, key, val re-check) and complete with no stores (ASCY1).
//
// A full bucket links an overflow cache-line bucket; the table doubles
// when the overflow buckets linked into it pass 1/16 of its buckets
// (table.growAt). Growth follows the load of the whole table, so keys
// that all land in one bucket lengthen only that chain.
type LB struct {
	tab          atomic.Pointer[table]
	resizeLock   locks.TAS
	readOnlyFail bool
}

// NewLB builds a CLHT-LB with cfg.Buckets cache-line buckets (power of two).
func NewLB(cfg core.Config) *LB {
	h := &LB{readOnlyFail: cfg.ReadOnlyFail}
	h.tab.Store(newTable(pow2(cfg.Buckets)))
	return h
}

// lockBucket spins on the bucket's concurrency word.
func lockBucket(b *bucket) {
	for i := 0; ; {
		if b.conc.Load() == 0 && b.conc.CompareAndSwap(0, 1) {
			return
		}
		i = locks.Pause(i)
	}
}

func unlockBucket(b *bucket) { b.conc.Store(0) }

// SearchCtx implements core.Instrumented. The per-pair atomic snapshot is
// the paper's: read val, check key, re-check val. When the re-check fails
// (a concurrent in-place Update replaced the value mid-read), the bucket is
// rescanned rather than skipped — the key is still present, so skipping the
// slot could report a continuously-present key as absent.
func (h *LB) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	t := h.tab.Load()
	for b := &t.buckets[mix(k)&t.mask]; b != nil; b = b.next.Load() {
		c.Inc(perf.EvTraverse)
	rescan:
		for i := 0; i < entriesPerBucket; i++ {
			v := b.val[i].Load()
			if b.key[i].Load() == uint64(k) {
				if b.val[i].Load() != v {
					goto rescan
				}
				return core.Value(v), true
			}
		}
	}
	return 0, false
}

// bucketScan is the result of lockedScan: the locked chain of k's bucket
// with the match and first-free-slot positions. The caller owns first's
// lock and must release it (directly or via installLocked).
type bucketScan struct {
	t      *table
	first  *bucket // locked head of the chain
	matchB *bucket // bucket holding k, nil if absent
	matchI int
	freeB  *bucket // first free slot seen, nil if chain full
	freeI  int
	last   *bucket // tail of the chain
}

// lockedScan locks k's bucket (retrying across resizes) and walks the whole
// chain once, recording where k lives and where a new pair could go. It is
// the single copy of the locked-update protocol that InsertCtx, GetOrInsert,
// and Update all sit on.
func (h *LB) lockedScan(c *perf.Ctx, k core.Key) bucketScan {
	for {
		t := h.tab.Load()
		first := &t.buckets[mix(k)&t.mask]
		lockBucket(first)
		c.Inc(perf.EvLock)
		if h.tab.Load() != t {
			unlockBucket(first) // resized under us; retry on the new table
			c.Inc(perf.EvRestart)
			continue
		}
		sc := bucketScan{t: t, first: first, matchI: -1, freeI: -1}
		b := first
		for {
			for i := 0; i < entriesPerBucket; i++ {
				kk := b.key[i].Load()
				if kk == uint64(k) {
					sc.matchB, sc.matchI = b, i
					return sc
				}
				if sc.freeI < 0 && kk == 0 {
					sc.freeB, sc.freeI = b, i
				}
			}
			nxt := b.next.Load()
			if nxt == nil {
				sc.last = b
				return sc
			}
			b = nxt
		}
	}
}

// installLocked publishes (k, v) into a scanned chain with no match: into
// the free slot if one was found, else a fresh overflow cache-line bucket
// ("the operation either links a new bucket by using the next pointer, or
// resizes the hash table"). It unlocks, then resizes if that link took the
// table's overflow count past its growth point; the count is touched only
// by an insert that links a bucket.
func (h *LB) installLocked(c *perf.Ctx, sc *bucketScan, k core.Key, v core.Value) {
	if sc.freeI >= 0 {
		// Publish val before key: a concurrent search matches the key
		// only after the value is in place.
		sc.freeB.val[sc.freeI].Store(uint64(v))
		sc.freeB.key[sc.freeI].Store(uint64(k))
		c.Inc(perf.EvStore)
		unlockBucket(sc.first)
		return
	}
	nb := &bucket{}
	nb.val[0].Store(uint64(v))
	nb.key[0].Store(uint64(k))
	sc.last.next.Store(nb)
	c.Inc(perf.EvStore)
	unlockBucket(sc.first)
	if sc.t.overflow.Add(1) > sc.t.growAt {
		h.resize(sc.t)
	}
}

// InsertCtx implements core.Instrumented.
func (h *LB) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	if h.readOnlyFail {
		// ASCY3: "updates first perform a search to check whether the
		// operation is at all feasible".
		c.ParseBegin()
		_, in := h.SearchCtx(c, k)
		c.ParseEnd()
		if in {
			return false
		}
	}
	sc := h.lockedScan(c, k)
	if sc.matchI >= 0 {
		unlockBucket(sc.first)
		return false
	}
	h.installLocked(c, &sc, k, v)
	return true
}

// RemoveCtx implements core.Instrumented.
func (h *LB) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	if h.readOnlyFail {
		c.ParseBegin()
		_, in := h.SearchCtx(c, k)
		c.ParseEnd()
		if !in {
			return 0, false
		}
	}
	for {
		t := h.tab.Load()
		first := &t.buckets[mix(k)&t.mask]
		lockBucket(first)
		c.Inc(perf.EvLock)
		if h.tab.Load() != t {
			unlockBucket(first)
			c.Inc(perf.EvRestart)
			continue
		}
		for b := first; b != nil; b = b.next.Load() {
			for i := 0; i < entriesPerBucket; i++ {
				if b.key[i].Load() == uint64(k) {
					v := core.Value(b.val[i].Load())
					b.key[i].Store(0) // linearization point for searches
					c.Inc(perf.EvStore)
					unlockBucket(first)
					return v, true
				}
			}
		}
		unlockBucket(first)
		return 0, false
	}
}

// resize doubles the table: it serializes resizers, locks every old bucket
// (quiescing updates), copies all pairs into a fresh table, publishes it,
// and releases the old locks so blocked updaters retry on the new table.
// Searches are never blocked; they linearize on their table-pointer load.
func (h *LB) resize(old *table) {
	h.resizeLock.Lock()
	defer h.resizeLock.Unlock()
	if h.tab.Load() != old {
		return
	}
	for i := range old.buckets {
		lockBucket(&old.buckets[i])
	}
	nt := newTable(len(old.buckets) * 2)
	for i := range old.buckets {
		for b := &old.buckets[i]; b != nil; b = b.next.Load() {
			for s := 0; s < entriesPerBucket; s++ {
				k := b.key[s].Load()
				if k == 0 {
					continue
				}
				h.put(nt, core.Key(k), core.Value(b.val[s].Load()))
			}
		}
	}
	h.tab.Store(nt)
	for i := range old.buckets {
		unlockBucket(&old.buckets[i])
	}
}

// put inserts into a private (not yet published) table, counting the
// overflow buckets it links as installLocked does.
func (h *LB) put(t *table, k core.Key, v core.Value) {
	b := &t.buckets[mix(k)&t.mask]
	for {
		for i := 0; i < entriesPerBucket; i++ {
			if b.key[i].Load() == 0 {
				b.val[i].Store(uint64(v))
				b.key[i].Store(uint64(k))
				return
			}
		}
		nxt := b.next.Load()
		if nxt == nil {
			nb := &bucket{}
			nb.val[0].Store(uint64(v))
			nb.key[0].Store(uint64(k))
			b.next.Store(nb)
			t.overflow.Add(1)
			return
		}
		b = nxt
	}
}

// GetOrInsert implements core.GetOrInserter natively: a lock-free search
// fast path (the common hit costs no stores), then a single locked bucket
// pass that re-checks and installs — one pass instead of the fallback's
// search + insert (+ its own re-search).
func (h *LB) GetOrInsert(k core.Key, v core.Value) (core.Value, bool) {
	if v0, in := h.SearchCtx(nil, k); in {
		return v0, false
	}
	sc := h.lockedScan(nil, k)
	if sc.matchI >= 0 {
		v0 := core.Value(sc.matchB.val[sc.matchI].Load())
		unlockBucket(sc.first)
		return v0, false
	}
	h.installLocked(nil, &sc, k, v)
	return v, true
}

// Update implements core.Updater natively: one locked bucket pass applies f
// to the authoritative value and commits the transition in place (value
// overwrite, slot clear, or fresh insert). Atomic against every operation —
// the bucket lock serializes it with updates, and searches see the in-place
// value store through their val/key/val snapshot.
func (h *LB) Update(k core.Key, f core.UpdateFunc) (core.Value, bool) {
	sc := h.lockedScan(nil, k)
	// f is user code and runs under the bucket spin-lock: release the
	// lock even if f panics, so a panicking callback cannot wedge the
	// bucket for every later writer that hashes to it. (The generic
	// fallback's stripe mutex has the same guarantee via defer.)
	locked := true
	defer func() {
		if locked {
			unlockBucket(sc.first)
		}
	}()
	if sc.matchI >= 0 {
		old := core.Value(sc.matchB.val[sc.matchI].Load())
		nv, keep := f(old, true)
		switch {
		case !keep:
			sc.matchB.key[sc.matchI].Store(0) // as RemoveCtx
		case nv != old:
			sc.matchB.val[sc.matchI].Store(uint64(nv))
		}
		locked = false
		unlockBucket(sc.first)
		if !keep {
			return old, false
		}
		return nv, true
	}
	nv, keep := f(0, false)
	if !keep {
		locked = false
		unlockBucket(sc.first)
		return 0, false
	}
	locked = false
	h.installLocked(nil, &sc, k, nv)
	return nv, true
}

// ForEach implements core.Iterable: a read-only sweep over the occupied
// slots. It observes each pair at some point during the call, not one
// atomic snapshot, but each yielded pair is individually valid: every slot
// is read with the paper's val/key/val snapshot (as in SearchCtx), so a
// concurrent remove+slot-reuse cannot produce a torn (old-key, new-value)
// pair — insert publishes val before key, so a stable val re-read pins the
// pair the key belonged to.
func (h *LB) ForEach(yield func(core.Key, core.Value) bool) {
	t := h.tab.Load()
	for i := range t.buckets {
		for b := &t.buckets[i]; b != nil; b = b.next.Load() {
			for s := 0; s < entriesPerBucket; s++ {
				for {
					v := b.val[s].Load()
					kk := b.key[s].Load()
					if kk == 0 {
						break
					}
					if b.val[s].Load() != v {
						continue // torn read; re-snapshot the slot
					}
					if !yield(core.Key(kk), core.Value(v)) {
						return
					}
					break
				}
			}
		}
	}
}

// Search looks up k.
func (h *LB) Search(k core.Key) (core.Value, bool) { return h.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (h *LB) Insert(k core.Key, v core.Value) bool { return h.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (h *LB) Remove(k core.Key) (core.Value, bool) { return h.RemoveCtx(nil, k) }

// Size counts occupied slots. Quiescent use only.
func (h *LB) Size() int {
	t := h.tab.Load()
	n := 0
	for i := range t.buckets {
		for b := &t.buckets[i]; b != nil; b = b.next.Load() {
			for s := 0; s < entriesPerBucket; s++ {
				if b.key[s].Load() != 0 {
					n++
				}
			}
		}
	}
	return n
}

// Buckets reports the current table size (tests observe resizing).
func (h *LB) Buckets() int { return len(h.tab.Load().buckets) }
