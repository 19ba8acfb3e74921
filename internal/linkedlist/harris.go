package linkedlist

import (
	"repro/internal/core"
	"repro/internal/mark"
	"repro/internal/perf"
)

// lfNode is the Harris/Michael node. next holds (successor, marked) as one
// tagged word, Harris's marked pointer: a CAS on it validates successor and
// mark together, and a marked next means the node is logically deleted.
type lfNode struct {
	key  core.Key
	val  core.Value
	next mark.Link[lfNode]
}

func newLFNode(k core.Key, v core.Value, succ *lfNode) *lfNode {
	n := &lfNode{key: k, val: v}
	n.next.Store(mark.Ref[lfNode]{N: succ})
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
type Harris struct {
	core.OrderedVia
	head, tail *lfNode
	optimized  bool
}

// NewHarris returns an empty Harris list; optimized selects harris-opt.
func NewHarris(cfg core.Config, optimized bool) *Harris {
	tail := newLFNode(tailKey, 0, nil)
	head := newLFNode(headKey, 0, tail)
	s := &Harris{head: head, tail: tail, optimized: optimized}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// search is Harris's search: it returns adjacent (left, right) with
// left.key < k <= right.key and right unmarked, unlinking any marked span in
// between. leftRef is the value of left.next that points at right, needed
// by the callers' CASes.
func (l *Harris) search(c *perf.Ctx, k core.Key) (left *lfNode, leftRef mark.Ref[lfNode], right *lfNode) {
searchAgain:
	for {
		t := l.head
		tRef := t.next.Load()
		// Phase 1: find left and right, remembering the last unmarked
		// node before the candidate.
		for {
			if !tRef.Marked {
				left = t
				leftRef = tRef
			}
			t = tRef.N
			if t == l.tail {
				break
			}
			c.Inc(perf.EvTraverse)
			tRef = t.next.Load()
			if !tRef.Marked && t.key >= k {
				break
			}
		}
		right = t
		// Phase 2: already adjacent?
		if leftRef.N == right {
			if right != l.tail && right.next.Load().Marked {
				c.Inc(perf.EvRestart)
				continue searchAgain // right got deleted underneath us
			}
			return left, leftRef, right
		}
		// Phase 3: unlink the marked span [leftRef.N .. right).
		newRef := mark.Ref[lfNode]{N: right}
		if left.next.CompareAndSwap(leftRef, newRef) {
			c.Inc(perf.EvCAS)
			c.Inc(perf.EvCleanup)
			if right != l.tail && right.next.Load().Marked {
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
func (l *Harris) parseOpt(c *perf.Ctx, k core.Key) (left *lfNode, leftRef mark.Ref[lfNode], right *lfNode) {
	left = l.head
	leftRef = left.next.Load()
	t := leftRef.N
	for t != l.tail {
		tRef := t.next.Load()
		if !tRef.Marked {
			if t.key >= k {
				break
			}
			left = t
			leftRef = tRef
		}
		c.Inc(perf.EvTraverse)
		t = tRef.N
	}
	return left, leftRef, t
}

// SearchCtx implements core.Instrumented.
func (l *Harris) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	if l.optimized {
		// ASCY1: traverse ignoring marks; no stores, no retries.
		curr := l.head.next.Load().N
		for curr != l.tail && curr.key < k {
			c.Inc(perf.EvTraverse)
			curr = curr.next.Load().N
		}
		if curr != l.tail && curr.key == k && !curr.next.Load().Marked {
			return curr.val, true
		}
		return 0, false
	}
	_, _, right := l.search(c, k)
	if right != l.tail && right.key == k {
		return right.val, true
	}
	return 0, false
}

func (l *Harris) parse(c *perf.Ctx, k core.Key) (left *lfNode, leftRef mark.Ref[lfNode], right *lfNode) {
	if l.optimized {
		return l.parseOpt(c, k)
	}
	return l.search(c, k)
}

// InsertCtx implements core.Instrumented.
func (l *Harris) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	var n *lfNode // allocated once, reused across CAS retries
	for {
		c.ParseBegin()
		left, leftRef, right := l.parse(c, k)
		c.ParseEnd()
		if right != l.tail && right.key == k {
			// Lock-free lists fail read-only by nature (ASCY3).
			return false
		}
		if n == nil {
			n = &lfNode{key: k, val: v}
		}
		n.next.Store(mark.Ref[lfNode]{N: right})
		if left.next.CompareAndSwap(leftRef, mark.Ref[lfNode]{N: n}) {
			c.Inc(perf.EvCAS)
			return true
		}
		c.Inc(perf.EvCASFail)
		c.Inc(perf.EvRestart)
	}
}

// RemoveCtx implements core.Instrumented.
func (l *Harris) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		c.ParseBegin()
		left, leftRef, right := l.parse(c, k)
		c.ParseEnd()
		if right == l.tail || right.key != k {
			return 0, false
		}
		rRef := right.next.Load()
		if rRef.Marked {
			if l.optimized {
				return 0, false // already logically deleted
			}
			c.Inc(perf.EvRestart)
			continue
		}
		// Step 1: logical deletion — mark right's next link.
		if !right.next.CompareAndSwap(rRef, mark.Ref[lfNode]{N: rRef.N, Marked: true}) {
			c.Inc(perf.EvCASFail)
			c.Inc(perf.EvRestart)
			continue
		}
		c.Inc(perf.EvCAS)
		val := right.val
		// Step 2: physical deletion — best effort; on failure the next
		// search (or update parse) cleans up.
		if left.next.CompareAndSwap(leftRef, mark.Ref[lfNode]{N: rRef.N}) {
			c.Inc(perf.EvCAS)
		} else {
			c.Inc(perf.EvCASFail)
			if !l.optimized {
				l.search(c, k) // harris: eagerly clean up
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
