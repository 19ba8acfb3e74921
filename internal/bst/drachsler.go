package bst

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/perf"
)

// Drachsler, Vechev & Yahav (PPoPP'14): an internal BST with *logical
// ordering* — every node is also a member of a sorted doubly-linked list
// (pred/succ). Searches traverse the tree and then confirm the answer on
// the list, which makes them effectively sequential reads; updates take the
// list locks (succLock of the predecessor, succLock of the node) plus tree
// locks for the physical restructuring, which is where the paper's
// "acquires ≥ 3 locks for removals" (Table 1, Figure 7) comes from.
//
// Physical maintenance notes: like the original, a two-child removal
// transplants the successor *node* into the removed position (keys never
// move between nodes); tree locks are taken with try-lock + full release on
// conflict, so lock acquisition order cannot deadlock. Rebalancing is not
// implemented (the original's relaxed balancing is orthogonal to its
// synchronization, and workloads here use uniform random keys).
type drNode struct {
	key    core.Key
	val    core.Value
	left   atomic.Pointer[drNode]
	right  atomic.Pointer[drNode]
	parent atomic.Pointer[drNode]
	pred   atomic.Pointer[drNode]
	succ   atomic.Pointer[drNode]

	treeLock locks.TAS
	succLock locks.TAS
	marked   atomic.Bool
}

// Drachsler is the drachsler tree of Table 1.
type Drachsler struct {
	core.OrderedVia
	head *drNode // list head, key 0; also the tree root sentinel
	tail *drNode // list tail, key MaxUint64
}

// NewDrachsler returns an empty tree.
func NewDrachsler(cfg core.Config) *Drachsler {
	head := &drNode{key: 0}
	tail := &drNode{key: sentinelKey}
	head.succ.Store(tail)
	tail.pred.Store(head)
	head.right.Store(tail)
	tail.parent.Store(head)
	s := &Drachsler{head: head, tail: tail}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// locate runs the tree traversal and then the logical-ordering walk,
// returning the list node with the smallest key >= k.
func (t *Drachsler) locate(c *perf.Ctx, k core.Key) *drNode {
	// Phase 1: plain BST descent (may be momentarily inconsistent under
	// concurrent transplants; phase 2 repairs that).
	curr := t.head
	for {
		c.Inc(perf.EvTraverse)
		var next *drNode
		if k == curr.key {
			break
		} else if k < curr.key {
			next = curr.left.Load()
		} else {
			next = curr.right.Load()
		}
		if next == nil {
			break
		}
		curr = next
	}
	// Phase 2: logical ordering. Walk back while too big, forward while
	// too small; the list is the ground truth.
	for k < curr.key {
		c.Inc(perf.EvTraverse)
		curr = curr.pred.Load()
	}
	for k > curr.key {
		c.Inc(perf.EvTraverse)
		curr = curr.succ.Load()
	}
	return curr
}

// SearchCtx implements core.Instrumented: tree descent plus list
// confirmation; no stores, no locks.
func (t *Drachsler) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	n := t.locate(c, k)
	if n.key == k && !n.marked.Load() {
		return n.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented. Two lock acquisitions on the
// uncontended path: pred's succLock plus one treeLock.
func (t *Drachsler) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	for {
		c.ParseBegin()
		pos := t.locate(c, k)
		c.ParseEnd()
		if pos.key == k && !pos.marked.Load() {
			return false // ASCY3
		}
		// p must be the live node with the largest key < k.
		p := pos
		for p.key >= k {
			p = p.pred.Load()
		}
		p.succLock.Lock()
		c.Inc(perf.EvLock)
		if p.marked.Load() {
			p.succLock.Unlock()
			c.Inc(perf.EvParseRestart)
			continue
		}
		s := p.succ.Load()
		if s.key == k {
			p.succLock.Unlock()
			return false
		}
		if p.key >= k || s.key < k {
			p.succLock.Unlock()
			c.Inc(perf.EvParseRestart)
			continue
		}
		// Tree insertion point: for consecutive (p, s), either p has no
		// right child or s has no left child.
		parent := p
		left := false
		if p.right.Load() != nil {
			parent, left = s, true
		}
		parent.treeLock.Lock()
		c.Inc(perf.EvLock)
		var slot *atomic.Pointer[drNode]
		if left {
			slot = &parent.left
		} else {
			slot = &parent.right
		}
		if parent.marked.Load() || slot.Load() != nil {
			parent.treeLock.Unlock()
			p.succLock.Unlock()
			c.Inc(perf.EvParseRestart)
			continue
		}
		n := &drNode{key: k, val: v}
		n.pred.Store(p)
		n.succ.Store(s)
		n.parent.Store(parent)
		slot.Store(n)
		c.Inc(perf.EvStore)
		// List insertion is the linearization point.
		s.pred.Store(n)
		p.succ.Store(n)
		c.Inc(perf.EvStore)
		parent.treeLock.Unlock()
		p.succLock.Unlock()
		return true
	}
}

// RemoveCtx implements core.Instrumented. Lock acquisitions on the
// uncontended path: pred succLock + node succLock + ≥2 tree locks.
func (t *Drachsler) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		c.ParseBegin()
		n := t.locate(c, k)
		c.ParseEnd()
		if n.key != k || n.marked.Load() {
			return 0, false // ASCY3
		}
		p := n.pred.Load()
		p.succLock.Lock()
		c.Inc(perf.EvLock)
		if p.marked.Load() || p.succ.Load() != n {
			p.succLock.Unlock()
			c.Inc(perf.EvParseRestart)
			continue
		}
		n.succLock.Lock()
		c.Inc(perf.EvLock)
		// n cannot be marked: marking n requires p.succLock.
		n.marked.Store(true) // logical removal: linearization point
		c.Inc(perf.EvStore)
		s := n.succ.Load()
		s.pred.Store(p)
		p.succ.Store(s)
		c.Inc(perf.EvStore)
		n.succLock.Unlock()
		p.succLock.Unlock()
		t.physicalRemove(c, n)
		return n.val, true
	}
}

// physicalRemove excises the marked node from the tree. All structural
// writes happen with the treeLocks of every touched node held; try-lock with
// full rollback avoids deadlock.
func (t *Drachsler) physicalRemove(c *perf.Ctx, n *drNode) {
	spin := 0
	for {
		parent := n.parent.Load()
		l, r := n.left.Load(), n.right.Load()
		if l != nil && r != nil {
			if t.transplant(c, n, parent) {
				return
			}
		} else {
			if t.splice(c, n, parent, l, r) {
				return
			}
		}
		spin = locks.Pause(spin)
	}
}

func childSlot(parent, child *drNode) *atomic.Pointer[drNode] {
	if parent.left.Load() == child {
		return &parent.left
	}
	if parent.right.Load() == child {
		return &parent.right
	}
	return nil
}

// splice removes a node with at most one child.
func (t *Drachsler) splice(c *perf.Ctx, n, parent, l, r *drNode) bool {
	if !parent.treeLock.TryLock() {
		return false
	}
	c.Inc(perf.EvLock)
	defer parent.treeLock.Unlock()
	if n.parent.Load() != parent {
		return false
	}
	if !n.treeLock.TryLock() {
		return false
	}
	c.Inc(perf.EvLock)
	defer n.treeLock.Unlock()
	l, r = n.left.Load(), n.right.Load() // re-read under locks
	if l != nil && r != nil {
		return false // grew a second child; caller switches to transplant
	}
	child := l
	if child == nil {
		child = r
	}
	if child != nil {
		if !child.treeLock.TryLock() {
			return false
		}
		c.Inc(perf.EvLock)
		defer child.treeLock.Unlock()
	}
	slot := childSlot(parent, n)
	if slot == nil {
		return false
	}
	slot.Store(child)
	c.Inc(perf.EvStore)
	if child != nil {
		child.parent.Store(parent)
		c.Inc(perf.EvStore)
	}
	return true
}

// transplant replaces a two-child node with its in-tree successor node
// (which, n being removed and list-unlinked already, is the leftmost node of
// n's right subtree).
func (t *Drachsler) transplant(c *perf.Ctx, n, parent *drNode) bool {
	// Find the successor and its parent optimistically.
	sp, s := n, n.right.Load()
	if s == nil {
		return false // shrunk meanwhile; caller re-examines
	}
	for {
		nl := s.left.Load()
		if nl == nil {
			break
		}
		sp, s = s, nl
	}
	// Lock set: parent, n, sp (if != n), s, s.right (if any), and n's
	// children. Any try-lock failure rolls everything back.
	var held []*locks.TAS
	lock := func(l *locks.TAS) bool {
		if !l.TryLock() {
			return false
		}
		c.Inc(perf.EvLock)
		held = append(held, l)
		return true
	}
	unlockAll := func() {
		for i := len(held) - 1; i >= 0; i-- {
			held[i].Unlock()
		}
	}
	if !lock(&parent.treeLock) {
		return false
	}
	ok := func() bool {
		if n.parent.Load() != parent {
			return false
		}
		if !lock(&n.treeLock) {
			return false
		}
		l, r := n.left.Load(), n.right.Load()
		if l == nil || r == nil {
			return false // changed shape; retry as splice
		}
		if sp != n && !lock(&sp.treeLock) {
			return false
		}
		if !lock(&s.treeLock) {
			return false
		}
		// Validate the successor snapshot under locks.
		if s.left.Load() != nil || s.parent.Load() != sp {
			return false
		}
		if sp == n && r != s {
			return false
		}
		if sp != n && sp.left.Load() != s {
			return false
		}
		sr := s.right.Load()
		if sr != nil && !lock(&sr.treeLock) {
			return false
		}
		if !lock(&l.treeLock) {
			return false
		}
		// r needs locking only when it is not already held: it is held
		// as sp when s is r's direct left child, and it is s itself
		// when sp == n.
		if sp != n && r != sp && !lock(&r.treeLock) {
			return false
		}
		// Excise s from its position.
		if sp != n {
			sp.left.Store(sr)
			if sr != nil {
				sr.parent.Store(sp)
			}
			s.right.Store(r)
			r.parent.Store(s)
		} else if sr != nil {
			// s == r: s keeps its right subtree.
			sr.parent.Store(s)
		}
		c.Inc(perf.EvStore)
		// Put s where n was.
		s.left.Store(l)
		l.parent.Store(s)
		slot := childSlot(parent, n)
		if slot == nil {
			return false
		}
		slot.Store(s)
		s.parent.Store(parent)
		c.Inc(perf.EvStore)
		return true
	}()
	unlockAll()
	return ok
}

// Search looks up k.
func (t *Drachsler) Search(k core.Key) (core.Value, bool) { return t.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (t *Drachsler) Insert(k core.Key, v core.Value) bool { return t.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (t *Drachsler) Remove(k core.Key) (core.Value, bool) { return t.RemoveCtx(nil, k) }
