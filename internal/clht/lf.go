package clht

import (
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/perf"
)

// Slot states kept in the snapshot_t map bytes.
const (
	slotFree      uint64 = 0 // empty (or rolled back / removed)
	slotInserting uint64 = 1 // owned by an in-flight insert
	slotValid     uint64 = 2 // holds a live key/value pair
)

// snapshot_t (§6.1): the bucket's 8-byte concurrency word viewed as a
// 32-bit version plus an array of per-slot state bytes. Every slot-state
// transition replaces the whole word with a CAS that also increments the
// version, so a transition by one thread invalidates any other thread's
// in-flight CAS on the same bucket — this is exactly how the paper makes
// concurrent in-place insertions appear atomic without locks.
//
// Layout: bits 0..31 version; bits 32+8i..39+8i state of slot i.

func snapVersion(w uint64) uint32 { return uint32(w) }

func snapState(w uint64, i int) uint64 { return (w >> (32 + 8*i)) & 0xFF }

// snapWith returns w with slot i set to st and the version incremented.
func snapWith(w uint64, i int, st uint64) uint64 {
	shift := uint(32 + 8*i)
	w = (w &^ (uint64(0xFF) << shift)) | st<<shift
	return (w &^ 0xFFFFFFFF) | uint64(snapVersion(w)+1)
}

// LF is CLHT-LF (§6.1). The concurrency word is a snapshot_t; searches are
// read-only; inserts acquire a slot by CASing its state byte FREE→INSERTING
// (becoming the slot's exclusive owner), publish the pair, re-verify
// uniqueness against the whole chain, and commit with INSERTING→VALID;
// removes retire a pair with a single VALID→FREE CAS. Any concurrent
// transition in the same bucket bumps the version and fails the CAS, which
// is what makes each transition atomic with respect to the others.
//
// Divergence note: when an insert observes a concurrent same-key insert
// that is ordered first, it defers (restarts); the deferred insert waits on
// the owner's next two stores, so the port is lock-free in practice but, as
// in the tech report's discussion, not wait-free.
type LF struct {
	t *table
}

// NewLF builds a CLHT-LF with cfg.Buckets cache-line buckets. CLHT-LF does
// not resize; overflow links extra cache-line buckets.
func NewLF(cfg core.Config) *LF {
	return &LF{t: newTable(pow2(cfg.Buckets))}
}

// SearchCtx implements core.Instrumented. ASCY1: no stores; the only
// "retry" is a bucket-local rescan when a concurrent transition bumps the
// version mid-validation.
func (h *LF) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for b := &h.t.buckets[mix(k)&h.t.mask]; b != nil; b = b.next.Load() {
		c.Inc(perf.EvTraverse)
	rescan:
		s := b.conc.Load()
		for i := 0; i < entriesPerBucket; i++ {
			if snapState(s, i) == slotValid && b.key[i].Load() == uint64(k) {
				v := b.val[i].Load()
				if b.conc.Load() != s {
					goto rescan
				}
				return core.Value(v), true
			}
		}
	}
	return 0, false
}

// dupScan walks the whole chain looking for key k in slots other than the
// caller's own (myB, myI). It returns:
//
//	dupValid    — k is VALID somewhere else (its value in dupVal): the
//	              insert must fail;
//	firstB/I    — k is INSERTING in slot firstI of firstB, ordered before
//	              mine in chain order: the caller must roll back, wait for
//	              that slot to resolve and retry, deferring to the
//	              chain-order winner so exactly one commits.
//
// An INSERTING duplicate ordered *after* mine cannot be ignored: its owner
// may have scanned before my key became visible and would then commit
// obliviously. Sequential consistency of the key stores guarantees at least
// one of us sees the other, so the earlier-positioned inserter spins until
// the later slot resolves (to VALID k → fail, or anything else → continue).
// The deferring side waits out the winner before retrying: if it re-acquired
// its slot at once, the winner would keep finding it INSERTING and both
// would spin for as long as the scheduler let them.
func (h *LF) dupScan(c *perf.Ctx, k core.Key, myB *bucket, myI int) (dupVal core.Value, dupValid bool, firstB *bucket, firstI int) {
	beforeMine := true
	for b := &h.t.buckets[mix(k)&h.t.mask]; b != nil; b = b.next.Load() {
	rescan:
		s := b.conc.Load()
		for i := 0; i < entriesPerBucket; i++ {
			if b == myB && i == myI {
				beforeMine = false
				continue
			}
			st := snapState(s, i)
			if st == slotFree {
				continue
			}
			if b.key[i].Load() != uint64(k) {
				continue
			}
			if st == slotValid {
				v := b.val[i].Load()
				if b.conc.Load() != s {
					goto rescan
				}
				return core.Value(v), true, nil, 0
			}
			// INSERTING with (possibly stale) key k.
			if beforeMine {
				return 0, false, b, i
			}
			// Ordered after mine: wait for the owner's next step,
			// then re-examine this bucket.
			awaitSlot(c, b, i, k)
			goto rescan
		}
	}
	return 0, false, nil, 0
}

// awaitSlot spins until slot i of b no longer holds an INSERTING k.
func awaitSlot(c *perf.Ctx, b *bucket, i int, k core.Key) {
	c.Inc(perf.EvWait)
	for spin := 0; ; {
		w := b.conc.Load()
		if snapState(w, i) != slotInserting || b.key[i].Load() != uint64(k) {
			return
		}
		spin = locks.Pause(spin)
	}
}

// InsertCtx implements core.Instrumented.
func (h *LF) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	_, inserted := h.getOrInsertCtx(c, k, v)
	return inserted
}

// GetOrInsert implements core.GetOrInserter natively: the insert protocol
// already performs the feasibility search and the uniqueness re-check, so
// returning the incumbent's value on failure costs nothing extra.
func (h *LF) GetOrInsert(k core.Key, v core.Value) (core.Value, bool) {
	return h.getOrInsertCtx(nil, k, v)
}

// getOrInsertCtx is the insert protocol (§6.1). It returns the value now
// associated with k and whether this call inserted it.
func (h *LF) getOrInsertCtx(c *perf.Ctx, k core.Key, v core.Value) (core.Value, bool) {
	spin := 0
	for {
		// Phase A: feasibility search (ASCY3) + free-slot hunt.
		if v0, in := h.SearchCtx(c, k); in {
			return v0, false
		}
		var freeB, lastB *bucket
		freeI := -1
		for b := &h.t.buckets[mix(k)&h.t.mask]; b != nil; b = b.next.Load() {
			s := b.conc.Load()
			for i := 0; i < entriesPerBucket && freeI < 0; i++ {
				if snapState(s, i) == slotFree {
					freeB, freeI = b, i
				}
			}
			lastB = b
		}

		var myB *bucket
		var myI int
		if freeI >= 0 {
			// Phase B: acquire the slot with a version-checked CAS.
			myB, myI = freeB, freeI
			s := myB.conc.Load()
			if snapState(s, myI) != slotFree {
				c.Inc(perf.EvRestart)
				continue
			}
			if !myB.conc.CompareAndSwap(s, snapWith(s, myI, slotInserting)) {
				c.Inc(perf.EvCASFail)
				c.Inc(perf.EvRestart)
				spin = locks.Pause(spin)
				continue
			}
			c.Inc(perf.EvCAS)
			// Exclusive owner of the slot: publish the pair.
			myB.key[myI].Store(uint64(k))
			myB.val[myI].Store(uint64(v))
			c.Inc(perf.EvStore)
		} else {
			// Chain full: append a cache-line bucket whose slot 0
			// is pre-owned, then fall into the same commit path.
			nb := &bucket{}
			nb.conc.Store(snapWith(0, 0, slotInserting))
			nb.key[0].Store(uint64(k))
			nb.val[0].Store(uint64(v))
			if !lastB.next.CompareAndSwap(nil, nb) {
				c.Inc(perf.EvCASFail)
				c.Inc(perf.EvRestart)
				continue // someone else appended; rescan the chain
			}
			c.Inc(perf.EvCAS)
			myB, myI = nb, 0
		}

		// Phase C: uniqueness re-check. A same-key insert may have
		// committed (or be in flight) since phase A.
		dupVal, dupValid, firstB, firstI := h.dupScan(c, k, myB, myI)
		if dupValid || firstB != nil {
			h.rollback(c, myB, myI)
			if dupValid {
				return dupVal, false
			}
			c.Inc(perf.EvRestart)
			awaitSlot(c, firstB, firstI, k)
			continue
		}

		// Phase D: commit. Retry the CAS if unrelated slots of the
		// bucket transition under us; our INSERTING state is owned,
		// so only the version can move.
		for {
			w := myB.conc.Load()
			if myB.conc.CompareAndSwap(w, snapWith(w, myI, slotValid)) {
				c.Inc(perf.EvCAS)
				return v, true
			}
			c.Inc(perf.EvCASFail)
		}
	}
}

// ForEach implements core.Set: a read-only sweep over the VALID slots.
// It observes each pair at some point during the call, not one atomic
// snapshot, but each yielded pair is individually valid: as in SearchCtx,
// the pair is re-validated against the snapshot_t version after the reads,
// so a concurrent remove+reinsert cannot produce a torn (new-key, old-value)
// pair. The done mask keeps a bucket rescan from yielding a slot twice.
func (h *LF) ForEach(yield func(core.Key, core.Value) bool) {
	for i := range h.t.buckets {
		for b := &h.t.buckets[i]; b != nil; b = b.next.Load() {
			var done [entriesPerBucket]bool
		rescan:
			s := b.conc.Load()
			for j := 0; j < entriesPerBucket; j++ {
				if done[j] || snapState(s, j) != slotValid {
					continue
				}
				k := b.key[j].Load()
				v := b.val[j].Load()
				if b.conc.Load() != s {
					goto rescan
				}
				done[j] = true
				if !yield(core.Key(k), core.Value(v)) {
					return
				}
			}
		}
	}
}

// rollback releases an owned slot without committing it.
func (h *LF) rollback(c *perf.Ctx, b *bucket, i int) {
	b.key[i].Store(0)
	c.Inc(perf.EvStore)
	for {
		w := b.conc.Load()
		if b.conc.CompareAndSwap(w, snapWith(w, i, slotFree)) {
			c.Inc(perf.EvCAS)
			return
		}
		c.Inc(perf.EvCASFail)
	}
}

// RemoveCtx implements core.Instrumented. A single VALID→FREE CAS retires
// the pair; the version bump invalidates concurrent snapshots.
func (h *LF) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
	chain:
		for b := &h.t.buckets[mix(k)&h.t.mask]; b != nil; b = b.next.Load() {
			c.Inc(perf.EvTraverse)
			s := b.conc.Load()
			for i := 0; i < entriesPerBucket; i++ {
				if snapState(s, i) != slotValid || b.key[i].Load() != uint64(k) {
					continue
				}
				v := b.val[i].Load()
				if b.conc.Load() != s {
					c.Inc(perf.EvRestart)
					break chain // re-run the outer loop
				}
				if b.conc.CompareAndSwap(s, snapWith(s, i, slotFree)) {
					c.Inc(perf.EvCAS)
					return core.Value(v), true
				}
				c.Inc(perf.EvCASFail)
				c.Inc(perf.EvRestart)
				break chain
			}
		}
		// Either the chain has no VALID k (fail read-only, ASCY3) or a
		// conflict forced a restart; distinguish via a clean search.
		if _, in := h.SearchCtx(c, k); !in {
			return 0, false
		}
	}
}

// Search looks up k.
func (h *LF) Search(k core.Key) (core.Value, bool) { return h.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (h *LF) Insert(k core.Key, v core.Value) bool { return h.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (h *LF) Remove(k core.Key) (core.Value, bool) { return h.RemoveCtx(nil, k) }

// Size implements core.Set: the number of elements ForEach yields.
func (h *LF) Size() int { return core.Count(h) }
