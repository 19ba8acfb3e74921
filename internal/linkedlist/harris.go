package linkedlist

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/ssmem"
)

// lfRef is an immutable (successor, marked) record. A node's next field
// holds a *lfRef; CASing the field therefore validates successor and mark
// together, which is the Go/GC-safe rendering of Harris's tagged pointer.
// marked set on a node's own next record means the node is logically
// deleted.
type lfRef struct {
	n      *lfNode
	marked bool
}

type lfNode struct {
	key  core.Key
	val  core.Value
	next atomic.Pointer[lfRef]
}

func newLFNode(k core.Key, v core.Value, succ *lfNode) *lfNode {
	n := &lfNode{key: k, val: v}
	n.next.Store(&lfRef{n: succ})
	return n
}

// Harris is Harris's lock-free list (Table 1). Deletions mark with one CAS
// and physically unlink with a second; traversals remove the logically
// deleted nodes they pass over and restart if that cleanup fails.
//
// With optimized == true this is harris-opt, the paper's ASCY1–2
// re-engineering (§5): the search performs no stores, no helping, and never
// restarts — it simply ignores marked nodes — and the update parse does not
// restart when a cleanup CAS fails. Figure 4 measures the difference.
//
// With cfg.Recycle, physically detached nodes are recycled through SSMEM
// epochs (see recycle.go for the ownership discipline) instead of becoming
// GC garbage — ASCY4's memory-management half.
type Harris struct {
	core.OrderedVia
	head, tail *lfNode
	optimized  bool
	rec        *ssmem.Pool[lfNode]
}

// NewHarris returns an empty Harris list; optimized selects harris-opt.
func NewHarris(cfg core.Config, optimized bool) *Harris {
	tail := newLFNode(tailKey, 0, nil)
	head := newLFNode(headKey, 0, tail)
	s := &Harris{head: head, tail: tail, optimized: optimized, rec: newNodePool[lfNode](cfg)}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// RecycleStats implements core.Recycler.
func (l *Harris) RecycleStats() ssmem.Stats { return ssmem.PoolStats(l.rec) }

// search is Harris's search: it returns adjacent (left, right) with
// left.key < k <= right.key and right unmarked, unlinking any marked span in
// between. leftRef is the record in left.next that points at right, needed
// by the callers' CASes.
func (l *Harris) search(a *ssmem.Allocator[lfNode], c *perf.Ctx, k core.Key) (left *lfNode, leftRef *lfRef, right *lfNode) {
searchAgain:
	for {
		t := l.head
		tRef := t.next.Load()
		// Phase 1: find left and right, remembering the last unmarked
		// node before the candidate.
		for {
			if !tRef.marked {
				left = t
				leftRef = tRef
			}
			t = tRef.n
			if t == l.tail {
				break
			}
			c.Inc(perf.EvTraverse)
			tRef = t.next.Load()
			if !tRef.marked && t.key >= k {
				break
			}
		}
		right = t
		// Phase 2: already adjacent?
		if leftRef.n == right {
			if right != l.tail && right.next.Load().marked {
				c.Inc(perf.EvRestart)
				continue searchAgain // right got deleted underneath us
			}
			return left, leftRef, right
		}
		// Phase 3: unlink the marked span [leftRef.n .. right).
		newRef := &lfRef{n: right}
		if left.next.CompareAndSwap(leftRef, newRef) {
			c.Inc(perf.EvCAS)
			c.Inc(perf.EvCleanup)
			freeLFSpan(a, leftRef.n, right)
			if right != l.tail && right.next.Load().marked {
				c.Inc(perf.EvRestart)
				continue searchAgain
			}
			return left, newRef, right
		}
		c.Inc(perf.EvCASFail)
		c.Inc(perf.EvRestart)
	}
}

// parseOpt is the ASCY2 parse: walk once, keeping the last unmarked node as
// left; never help, never restart. Callers' CASes provide the validation.
func (l *Harris) parseOpt(c *perf.Ctx, k core.Key) (left *lfNode, leftRef *lfRef, right *lfNode) {
	left = l.head
	leftRef = left.next.Load()
	t := leftRef.n
	for t != l.tail {
		tRef := t.next.Load()
		if !tRef.marked {
			if t.key >= k {
				break
			}
			left = t
			leftRef = tRef
		}
		c.Inc(perf.EvTraverse)
		t = tRef.n
	}
	return left, leftRef, t
}

// SearchCtx implements core.Instrumented.
func (l *Harris) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	a := ssmem.Pin(l.rec)
	defer ssmem.Unpin(l.rec, a)
	if l.optimized {
		// ASCY1: traverse ignoring marks; no stores, no retries.
		curr := l.head.next.Load().n
		for curr != l.tail && curr.key < k {
			c.Inc(perf.EvTraverse)
			curr = curr.next.Load().n
		}
		if curr != l.tail && curr.key == k && !curr.next.Load().marked {
			return curr.val, true
		}
		return 0, false
	}
	_, _, right := l.search(a, c, k)
	if right != l.tail && right.key == k {
		return right.val, true
	}
	return 0, false
}

func (l *Harris) parse(a *ssmem.Allocator[lfNode], c *perf.Ctx, k core.Key) (left *lfNode, leftRef *lfRef, right *lfNode) {
	if l.optimized {
		return l.parseOpt(c, k)
	}
	return l.search(a, c, k)
}

// InsertCtx implements core.Instrumented.
func (l *Harris) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	a := ssmem.Pin(l.rec)
	defer ssmem.Unpin(l.rec, a)
	var n *lfNode // allocated once, reused across CAS retries
	for {
		c.ParseBegin()
		left, leftRef, right := l.parse(a, c, k)
		c.ParseEnd()
		if right != l.tail && right.key == k {
			// Lock-free lists fail read-only by nature (ASCY3). A node
			// allocated on an earlier iteration was never published.
			ssmem.FreeTo(a, n)
			return false
		}
		if n == nil {
			n = allocLF(a, k, v)
		}
		n.next.Store(&lfRef{n: right})
		if left.next.CompareAndSwap(leftRef, &lfRef{n: n}) {
			c.Inc(perf.EvCAS)
			// The CAS also swallowed any marked span the optimized
			// parse stepped over.
			freeLFSpan(a, leftRef.n, right)
			return true
		}
		c.Inc(perf.EvCASFail)
		c.Inc(perf.EvRestart)
	}
}

// RemoveCtx implements core.Instrumented.
func (l *Harris) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	a := ssmem.Pin(l.rec)
	defer ssmem.Unpin(l.rec, a)
	for {
		c.ParseBegin()
		left, leftRef, right := l.parse(a, c, k)
		c.ParseEnd()
		if right == l.tail || right.key != k {
			return 0, false
		}
		rRef := right.next.Load()
		if rRef.marked {
			if l.optimized {
				return 0, false // already logically deleted
			}
			c.Inc(perf.EvRestart)
			continue
		}
		// Step 1: logical deletion — mark right's next record.
		if !right.next.CompareAndSwap(rRef, &lfRef{n: rRef.n, marked: true}) {
			c.Inc(perf.EvCASFail)
			c.Inc(perf.EvRestart)
			continue
		}
		c.Inc(perf.EvCAS)
		val := right.val // we own the logical delete; read before any free
		// Step 2: physical deletion — best effort; on failure the next
		// search (or update parse) cleans up.
		if left.next.CompareAndSwap(leftRef, &lfRef{n: rRef.n}) {
			c.Inc(perf.EvCAS)
			// Detached [leftRef.n .. rRef.n): right plus any marked
			// span the parse stepped over.
			freeLFSpan(a, leftRef.n, rRef.n)
		} else {
			c.Inc(perf.EvCASFail)
			if !l.optimized {
				l.search(a, c, k) // harris: eagerly clean up
			}
		}
		return val, true
	}
}

// Search looks up k.
func (l *Harris) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Harris) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Harris) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }

// Size counts unmarked elements. Quiescent use only.
func (l *Harris) Size() int {
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
