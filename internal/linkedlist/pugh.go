package linkedlist

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/perf"
)

// pughNode: next and deleted are read optimistically and written under the
// node's lock. A deleted node's next is reversed to point at its predecessor
// (Pugh's back-pointer), so a traversal standing on it steps back to live
// territory and resumes.
type pughNode struct {
	key     core.Key
	val     core.Value
	next    atomic.Pointer[pughNode]
	deleted atomic.Bool
	lock    locks.TAS
}

// Pugh is Pugh's concurrent list (Table 1): operations parse optimistically
// with no synchronization, updates lock and validate the target nodes, and
// removals employ pointer reversal so that a concurrent parse always finds a
// correct path without restarting. Search is identical to the sequential
// algorithm (ASCY1); with ReadOnlyFail, failed updates are read-only (ASCY3).
type Pugh struct {
	core.OrderedVia
	head         *pughNode
	readOnlyFail bool
}

// NewPugh returns an empty Pugh list.
func NewPugh(cfg core.Config) *Pugh {
	tail := &pughNode{key: tailKey}
	head := &pughNode{key: headKey}
	head.next.Store(tail)
	s := &Pugh{head: head, readOnlyFail: cfg.ReadOnlyFail}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// parse walks to the first node with key >= k. If it lands on a deleted
// node, the reversed next pointer walks it back to the predecessor; keys are
// monotone on the live path, so the walk converges.
func (l *Pugh) parse(c *perf.Ctx, k core.Key) (pred, curr *pughNode) {
	pred = l.head
	curr = pred.next.Load()
	for curr.key < k || curr.deleted.Load() {
		c.Inc(perf.EvTraverse)
		if curr.deleted.Load() {
			// Back-pointer: hop to the predecessor recorded at
			// unlink time and resume from there.
			curr = curr.next.Load()
			continue
		}
		pred = curr
		curr = curr.next.Load()
	}
	return pred, curr
}

// SearchCtx implements core.Instrumented. No stores, waiting, or retries.
func (l *Pugh) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	_, curr := l.parse(c, k)
	if curr.key == k {
		return curr.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Pugh) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	for {
		c.ParseBegin()
		pred, curr := l.parse(c, k)
		c.ParseEnd()
		if l.readOnlyFail && curr.key == k {
			return false // ASCY3
		}
		pred.lock.Lock()
		c.Inc(perf.EvLock)
		if pred.deleted.Load() || pred.next.Load() != curr {
			pred.lock.Unlock()
			c.Inc(perf.EvParseRestart)
			continue
		}
		if curr.key == k {
			pred.lock.Unlock()
			return false
		}
		n := &pughNode{key: k, val: v}
		n.next.Store(curr)
		pred.next.Store(n)
		c.Inc(perf.EvStore)
		pred.lock.Unlock()
		return true
	}
}

// RemoveCtx implements core.Instrumented.
func (l *Pugh) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		c.ParseBegin()
		pred, curr := l.parse(c, k)
		c.ParseEnd()
		if l.readOnlyFail && curr.key != k {
			return 0, false // ASCY3
		}
		pred.lock.Lock()
		c.Inc(perf.EvLock)
		if pred.deleted.Load() || pred.next.Load() != curr {
			pred.lock.Unlock()
			c.Inc(perf.EvParseRestart)
			continue
		}
		if curr.key != k {
			pred.lock.Unlock()
			return 0, false
		}
		curr.lock.Lock()
		c.Inc(perf.EvLock)
		// curr cannot be deleted: deletion requires pred's lock, which
		// we hold, and pred.next still points at curr.
		curr.deleted.Store(true)
		c.Inc(perf.EvStore)
		pred.next.Store(curr.next.Load())
		c.Inc(perf.EvStore)
		curr.next.Store(pred) // pointer reversal for stranded parses
		c.Inc(perf.EvStore)
		curr.lock.Unlock()
		pred.lock.Unlock()
		return curr.val, true
	}
}

// Search looks up k.
func (l *Pugh) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Pugh) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Pugh) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }
