package linkedlist

import (
	"repro/internal/core"
	"repro/internal/mark"
	"repro/internal/perf"
)

// Michael is Michael's (SPAA '02) refactoring of the Harris list (Table 1),
// designed for easier memory management: instead of unlinking whole marked
// spans, the traversal unlinks logically deleted nodes one at a time, and
// restarts from the head whenever a CAS fails or an inconsistency is
// observed. It shares lfNode and its tagged next link with Harris.
type Michael struct {
	core.OrderedVia
	head, tail *lfNode
}

// NewMichael returns an empty Michael list.
func NewMichael(cfg core.Config) *Michael {
	tail := newLFNode(tailKey, 0, nil)
	head := newLFNode(headKey, 0, tail)
	s := &Michael{head: head, tail: tail}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// find positions (prev, prevRef, curr) with prev.key < k <= curr.key, curr
// unmarked, unlinking each marked node it encounters. Restarts from the head
// when an unlink CAS fails.
func (l *Michael) find(c *perf.Ctx, k core.Key) (prev *lfNode, prevRef mark.Ref[lfNode], curr *lfNode) {
tryAgain:
	for {
		prev = l.head
		prevRef = prev.next.Load()
		curr = prevRef.N
		for curr != l.tail {
			currRef := curr.next.Load()
			if currRef.Marked {
				// Unlink the single deleted node before stepping
				// over it; on conflict, restart from the head.
				newRef := mark.Ref[lfNode]{N: currRef.N}
				if !prev.next.CompareAndSwap(prevRef, newRef) {
					c.Inc(perf.EvCASFail)
					c.Inc(perf.EvRestart)
					continue tryAgain
				}
				c.Inc(perf.EvCAS)
				c.Inc(perf.EvCleanup)
				prevRef = newRef
				curr = currRef.N
				continue
			}
			if curr.key >= k {
				return prev, prevRef, curr
			}
			c.Inc(perf.EvTraverse)
			prev = curr
			prevRef = currRef
			curr = currRef.N
		}
		return prev, prevRef, l.tail
	}
}

// SearchCtx implements core.Instrumented. Note that, as in the original,
// the search path helps unlink and may restart — the ASCY1 violation that
// harris-opt removes.
func (l *Michael) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	_, _, curr := l.find(c, k)
	if curr != l.tail && curr.key == k {
		return curr.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Michael) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	var n *lfNode // allocated once, reused across CAS retries
	for {
		c.ParseBegin()
		prev, prevRef, curr := l.find(c, k)
		c.ParseEnd()
		if curr != l.tail && curr.key == k {
			return false
		}
		if n == nil {
			n = &lfNode{key: k, val: v}
		}
		n.next.Store(mark.Ref[lfNode]{N: curr})
		if prev.next.CompareAndSwap(prevRef, mark.Ref[lfNode]{N: n}) {
			c.Inc(perf.EvCAS)
			return true
		}
		c.Inc(perf.EvCASFail)
		c.Inc(perf.EvRestart)
	}
}

// RemoveCtx implements core.Instrumented.
func (l *Michael) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		c.ParseBegin()
		prev, prevRef, curr := l.find(c, k)
		c.ParseEnd()
		if curr == l.tail || curr.key != k {
			return 0, false
		}
		currRef := curr.next.Load()
		if currRef.Marked {
			c.Inc(perf.EvRestart)
			continue
		}
		if !curr.next.CompareAndSwap(currRef, mark.Ref[lfNode]{N: currRef.N, Marked: true}) {
			c.Inc(perf.EvCASFail)
			c.Inc(perf.EvRestart)
			continue
		}
		c.Inc(perf.EvCAS)
		val := curr.val
		if prev.next.CompareAndSwap(prevRef, mark.Ref[lfNode]{N: currRef.N}) {
			c.Inc(perf.EvCAS)
		} else {
			c.Inc(perf.EvCASFail)
			l.find(c, k) // delegate cleanup to a fresh traversal
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
