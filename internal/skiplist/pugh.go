package skiplist

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/perf"
)

// pNode is a Pugh skip-list node: one lock guards the node's forward
// pointers at every level; parse reads them optimistically.
type pNode struct {
	key     core.Key
	val     core.Value
	next    []atomic.Pointer[pNode]
	lock    locks.TAS
	deleted atomic.Bool
}

// Pugh is Pugh's concurrent skip list (Table 1): "maintains several levels
// of pugh lists. Parses towards the target node without locking." Updates
// lock one level at a time and link/unlink level by level; membership is
// decided at level 0, so partially linked towers are benign. The parse does
// no stores and never restarts (ASCY2); failed updates are read-only
// (ASCY3, with ReadOnlyFail).
type Pugh struct {
	core.OrderedVia
	head         *pNode
	maxLevel     int
	readOnlyFail bool
}

// NewPugh returns an empty Pugh skip list.
func NewPugh(cfg core.Config) *Pugh {
	ml := clampLevel(cfg)
	tail := newPNode(tailKey, 0, ml)
	head := newPNode(headKey, 0, ml)
	for i := range head.next {
		head.next[i].Store(tail)
	}
	s := &Pugh{head: head, maxLevel: ml, readOnlyFail: cfg.ReadOnlyFail}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

func newPNode(k core.Key, v core.Value, h int) *pNode {
	return &pNode{key: k, val: v, next: make([]atomic.Pointer[pNode], h)}
}

// parse fills preds/succs without any synchronization. A node that is being
// (or has been) removed can linger at upper levels with *frozen* forward
// pointers that predate newer insertions, so the descent must only adopt
// live nodes as predecessors: a live node's pointers are maintained under
// its lock and always describe the current list. Deleted nodes are used as
// stepping stones only.
func (l *Pugh) parse(c *perf.Ctx, k core.Key, preds, succs []*pNode) *pNode {
	pred := l.head
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		curr := pred.next[lvl].Load()
		for curr.key < k {
			c.Inc(perf.EvTraverse)
			if !curr.deleted.Load() {
				pred = curr
			}
			curr = curr.next[lvl].Load()
		}
		preds[lvl] = pred
		succs[lvl] = curr
	}
	return succs[0]
}

// getLock returns the locked, live predecessor of k at the given level:
// pred.key < k, pred unlocked-deleted == false, and pred.next[lvl].key >= k
// after splicing out any deleted span that sits between (a cleanup store,
// permitted within parses by ASCY2). Returns nil if the starting point died,
// in which case the caller re-parses from the head.
func (l *Pugh) getLock(c *perf.Ctx, start *pNode, k core.Key, lvl int) *pNode {
	pred := start
	for {
		for curr := pred.next[lvl].Load(); curr.key < k; curr = curr.next[lvl].Load() {
			c.Inc(perf.EvTraverse)
			if !curr.deleted.Load() {
				pred = curr
			}
		}
		if pred.deleted.Load() {
			return nil
		}
		pred.lock.Lock()
		c.Inc(perf.EvLock)
		if pred.deleted.Load() {
			pred.lock.Unlock()
			return nil
		}
		// Under the lock, pred's successor chain may still open with
		// nodes that a concurrent removal has marked but not yet
		// unlinked at this level; splice them out while we hold the
		// only lock that guards this edge.
		first := pred.next[lvl].Load()
		curr := first
		for curr.key < k && curr.deleted.Load() {
			curr = curr.next[lvl].Load()
		}
		if curr.key >= k {
			if curr != first {
				pred.next[lvl].Store(curr)
				c.Inc(perf.EvStore)
				c.Inc(perf.EvCleanup)
			}
			return pred
		}
		// A live node with key < k appeared behind pred; hand over.
		pred.lock.Unlock()
		pred = curr
	}
}

// SearchCtx implements core.Instrumented. ASCY1: no stores or retries. The
// descent adopts only live predecessors (see parse) so that a stale frozen
// pointer can never hide a live key from a quiescent search.
func (l *Pugh) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	pred := l.head
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		curr := pred.next[lvl].Load()
		for curr.key < k {
			c.Inc(perf.EvTraverse)
			if !curr.deleted.Load() {
				pred = curr
			}
			curr = curr.next[lvl].Load()
		}
		// A live match can be reported from any level; a deleted match
		// must not short-circuit — a reinserted live tower may exist
		// below, so keep descending.
		if curr.key == k && !curr.deleted.Load() {
			return curr.val, true
		}
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Pugh) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	var preds, succs [maxHeight]*pNode
	h := randomLevel(l.maxLevel)
	var node *pNode // allocated once, reused across parse restarts
	for {
		c.ParseBegin()
		cand := l.parse(c, k, preds[:l.maxLevel], succs[:l.maxLevel])
		c.ParseEnd()
		if l.readOnlyFail && cand.key == k && !cand.deleted.Load() {
			return false // ASCY3
		}
		if node == nil {
			node = newPNode(k, v, h)
		}
		// Level 0 decides membership.
		pred := l.getLock(c, preds[0], k, 0)
		if pred == nil {
			c.Inc(perf.EvParseRestart)
			continue
		}
		succ := pred.next[0].Load()
		if succ.key == k {
			pred.lock.Unlock()
			return false
		}
		node.next[0].Store(succ)
		pred.next[0].Store(node)
		c.Inc(perf.EvStore)
		pred.lock.Unlock()
		// Upper levels: link one at a time; partially linked towers
		// are fine (membership is level 0).
		for lvl := 1; lvl < h; lvl++ {
			if node.deleted.Load() {
				break // concurrently removed; stop building
			}
			pred := l.getLock(c, preds[lvl], k, lvl)
			if pred == nil {
				break
			}
			succ := pred.next[lvl].Load()
			if succ == node || succ.key == k {
				// Tower already reaches here (e.g. remove+
				// reinsert race landed elsewhere); stop.
				pred.lock.Unlock()
				break
			}
			node.next[lvl].Store(succ)
			pred.next[lvl].Store(node)
			c.Inc(perf.EvStore)
			pred.lock.Unlock()
		}
		return true
	}
}

// RemoveCtx implements core.Instrumented.
func (l *Pugh) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	var preds, succs [maxHeight]*pNode
	for {
		c.ParseBegin()
		cand := l.parse(c, k, preds[:l.maxLevel], succs[:l.maxLevel])
		c.ParseEnd()
		if l.readOnlyFail && (cand.key != k || cand.deleted.Load()) {
			return 0, false // ASCY3
		}
		// Claim the node: setting deleted under its lock makes this
		// remover the unique owner of the unlink.
		pred := l.getLock(c, preds[0], k, 0)
		if pred == nil {
			c.Inc(perf.EvParseRestart)
			continue
		}
		node := pred.next[0].Load()
		if node.key != k {
			pred.lock.Unlock()
			return 0, false
		}
		node.lock.Lock()
		c.Inc(perf.EvLock)
		node.deleted.Store(true)
		c.Inc(perf.EvStore)
		// Unlink level 0 immediately (we hold its pred).
		pred.next[0].Store(node.next[0].Load())
		c.Inc(perf.EvStore)
		val := node.val
		node.lock.Unlock()
		pred.lock.Unlock()
		// Unlink remaining levels top-down, one lock at a time,
		// resuming from the parse's predecessors rather than the head.
		for lvl := len(node.next) - 1; lvl >= 1; lvl-- {
			start := l.head
			if lvl < l.maxLevel && preds[lvl] != nil && !preds[lvl].deleted.Load() {
				start = preds[lvl]
			}
			p := l.lockPredOf(c, start, node, k, lvl)
			if p == nil {
				continue // not linked at this level (or already unlinked)
			}
			p.next[lvl].Store(node.next[lvl].Load())
			c.Inc(perf.EvStore)
			p.lock.Unlock()
		}
		return val, true
	}
}

// lockPredOf finds and locks the live node whose next[lvl] is node, scanning
// forward from start; nil if node is not linked at lvl from that path (a
// stale link, if any, is later spliced out by getLock's cleanup).
func (l *Pugh) lockPredOf(c *perf.Ctx, start, node *pNode, k core.Key, lvl int) *pNode {
	pred := start
	curr := pred.next[lvl].Load()
	for curr != node && curr.key <= k {
		if !curr.deleted.Load() {
			pred = curr
		}
		curr = curr.next[lvl].Load()
	}
	if curr != node {
		return nil
	}
	pred.lock.Lock()
	c.Inc(perf.EvLock)
	for {
		if pred.deleted.Load() {
			pred.lock.Unlock()
			return nil
		}
		curr = pred.next[lvl].Load()
		if curr == node {
			return pred
		}
		// Walk the locked window forward over any deleted span to see
		// whether node is still ahead of pred's current edge.
		scan := curr
		for scan != node && scan.key <= k && scan.deleted.Load() {
			scan = scan.next[lvl].Load()
		}
		if scan == node {
			// pred -> (deleted span) -> node: unlink node together
			// with the span in one splice under pred's lock.
			pred.next[lvl].Store(node.next[lvl].Load())
			c.Inc(perf.EvStore)
			pred.lock.Unlock()
			return nil // already unlinked; nothing left for the caller
		}
		if curr.key > k {
			pred.lock.Unlock()
			return nil
		}
		pred.lock.Unlock()
		if curr.deleted.Load() {
			return nil
		}
		pred = curr
		pred.lock.Lock()
		c.Inc(perf.EvLock)
	}
}

// Search looks up k.
func (l *Pugh) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Pugh) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Pugh) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }
