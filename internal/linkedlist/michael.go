package linkedlist

import (
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/ssmem"
)

// Michael is Michael's (SPAA '02) refactoring of the Harris list (Table 1),
// designed for easier memory management: instead of unlinking whole marked
// spans, the traversal unlinks logically deleted nodes one at a time, and
// restarts from the head whenever a CAS fails or an inconsistency is
// observed. It shares the lfNode/lfRef encoding with Harris.
//
// The one-node-at-a-time unlink is exactly what makes Michael's list the
// natural fit for SSMEM recycling (its original purpose): with cfg.Recycle,
// the thread whose CAS detaches a node frees it through the epoch
// allocator, and no span walking is ever needed.
type Michael struct {
	core.OrderedVia
	head, tail *lfNode
	rec        *ssmem.Pool[lfNode]
}

// NewMichael returns an empty Michael list.
func NewMichael(cfg core.Config) *Michael {
	tail := newLFNode(tailKey, 0, nil)
	head := newLFNode(headKey, 0, tail)
	s := &Michael{head: head, tail: tail, rec: newNodePool[lfNode](cfg)}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// RecycleStats implements core.Recycler.
func (l *Michael) RecycleStats() ssmem.Stats { return ssmem.PoolStats(l.rec) }

// find positions (prev, prevRef, curr) with prev.key < k <= curr.key, curr
// unmarked, unlinking each marked node it encounters. Restarts from the head
// when an unlink CAS fails.
func (l *Michael) find(a *ssmem.Allocator[lfNode], c *perf.Ctx, k core.Key) (prev *lfNode, prevRef *lfRef, curr *lfNode) {
tryAgain:
	for {
		prev = l.head
		prevRef = prev.next.Load()
		curr = prevRef.n
		for curr != l.tail {
			currRef := curr.next.Load()
			if currRef.marked {
				// Unlink the single deleted node before stepping
				// over it; on conflict, restart from the head.
				newRef := &lfRef{n: currRef.n}
				if !prev.next.CompareAndSwap(prevRef, newRef) {
					c.Inc(perf.EvCASFail)
					c.Inc(perf.EvRestart)
					continue tryAgain
				}
				c.Inc(perf.EvCAS)
				c.Inc(perf.EvCleanup)
				ssmem.FreeTo(a, curr) // our CAS detached it
				prevRef = newRef
				curr = currRef.n
				continue
			}
			if curr.key >= k {
				return prev, prevRef, curr
			}
			c.Inc(perf.EvTraverse)
			prev = curr
			prevRef = currRef
			curr = currRef.n
		}
		return prev, prevRef, l.tail
	}
}

// SearchCtx implements core.Instrumented. Note that, as in the original,
// the search path helps unlink and may restart — the ASCY1 violation that
// harris-opt removes.
func (l *Michael) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	a := ssmem.Pin(l.rec)
	defer ssmem.Unpin(l.rec, a)
	_, _, curr := l.find(a, c, k)
	if curr != l.tail && curr.key == k {
		return curr.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Michael) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	a := ssmem.Pin(l.rec)
	defer ssmem.Unpin(l.rec, a)
	var n *lfNode // allocated once, reused across CAS retries
	for {
		c.ParseBegin()
		prev, prevRef, curr := l.find(a, c, k)
		c.ParseEnd()
		if curr != l.tail && curr.key == k {
			ssmem.FreeTo(a, n) // never published
			return false
		}
		if n == nil {
			n = allocLF(a, k, v)
		}
		n.next.Store(&lfRef{n: curr})
		if prev.next.CompareAndSwap(prevRef, &lfRef{n: n}) {
			c.Inc(perf.EvCAS)
			return true
		}
		c.Inc(perf.EvCASFail)
		c.Inc(perf.EvRestart)
	}
}

// RemoveCtx implements core.Instrumented.
func (l *Michael) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	a := ssmem.Pin(l.rec)
	defer ssmem.Unpin(l.rec, a)
	for {
		c.ParseBegin()
		prev, prevRef, curr := l.find(a, c, k)
		c.ParseEnd()
		if curr == l.tail || curr.key != k {
			return 0, false
		}
		currRef := curr.next.Load()
		if currRef.marked {
			c.Inc(perf.EvRestart)
			continue
		}
		if !curr.next.CompareAndSwap(currRef, &lfRef{n: currRef.n, marked: true}) {
			c.Inc(perf.EvCASFail)
			c.Inc(perf.EvRestart)
			continue
		}
		c.Inc(perf.EvCAS)
		val := curr.val // we own the logical delete; read before any free
		if prev.next.CompareAndSwap(prevRef, &lfRef{n: currRef.n}) {
			c.Inc(perf.EvCAS)
			ssmem.FreeTo(a, curr) // our CAS detached it
		} else {
			c.Inc(perf.EvCASFail)
			l.find(a, c, k) // delegate cleanup (and the free) to a fresh traversal
		}
		return val, true
	}
}

// Search looks up k.
func (l *Michael) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Michael) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Michael) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }

// Size counts unmarked elements. Quiescent use only.
func (l *Michael) Size() int {
	a := ssmem.Pin(l.rec)
	defer ssmem.Unpin(l.rec, a)
	n := 0
	for curr := l.head.next.Load().n; curr != l.tail; {
		ref := curr.next.Load()
		if !ref.marked {
			n++
		}
		curr = ref.n
	}
	return n
}
