package linkedlist

import (
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/perf"
)

// cplNode is protected by its own lock; next is only read or written while
// the node's lock is held (hand-over-hand), so it needs no atomics.
type cplNode struct {
	lock locks.TAS
	key  core.Key
	val  core.Value
	next *cplNode
}

// Coupling is the fully lock-based list: every operation, including search,
// performs hand-over-hand (lock-coupling) locking while parsing. It is the
// canonical non-scalable baseline of Figure 2a — every traversal writes
// every node's lock word, maximizing coherence traffic.
type Coupling struct {
	core.OrderedVia
	head *cplNode
}

// NewCoupling returns an empty lock-coupling list.
func NewCoupling(cfg core.Config) *Coupling {
	tail := &cplNode{key: tailKey}
	head := &cplNode{key: headKey, next: tail}
	s := &Coupling{head: head}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// traverse walks to the update point with lock coupling and returns pred and
// curr with both locks held.
func (l *Coupling) traverse(c *perf.Ctx, k core.Key) (pred, curr *cplNode) {
	pred = l.head
	pred.lock.Lock()
	c.Inc(perf.EvLock)
	curr = pred.next
	curr.lock.Lock()
	c.Inc(perf.EvLock)
	for curr.key < k {
		c.Inc(perf.EvTraverse)
		pred.lock.Unlock()
		pred = curr
		curr = curr.next
		curr.lock.Lock()
		c.Inc(perf.EvLock)
	}
	return pred, curr
}

// SearchCtx implements core.Instrumented.
func (l *Coupling) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	pred, curr := l.traverse(c, k)
	defer pred.lock.Unlock()
	defer curr.lock.Unlock()
	if curr.key == k {
		return curr.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Coupling) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	c.ParseBegin()
	pred, curr := l.traverse(c, k)
	c.ParseEnd()
	defer pred.lock.Unlock()
	defer curr.lock.Unlock()
	if curr.key == k {
		return false
	}
	pred.next = &cplNode{key: k, val: v, next: curr}
	c.Inc(perf.EvStore)
	return true
}

// RemoveCtx implements core.Instrumented.
func (l *Coupling) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	c.ParseBegin()
	pred, curr := l.traverse(c, k)
	c.ParseEnd()
	defer pred.lock.Unlock()
	defer curr.lock.Unlock()
	if curr.key != k {
		return 0, false
	}
	pred.next = curr.next
	c.Inc(perf.EvStore)
	return curr.val, true
}

// Search looks up k.
func (l *Coupling) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Coupling) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Coupling) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }
