package skiplist

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/perf"
)

// hNode is a node of the optimistic skip list: marked is the logical-delete
// flag, fullyLinked is set once the whole tower is linked, and the lock
// guards the node's forward pointers.
type hNode struct {
	key         core.Key
	val         core.Value
	next        []atomic.Pointer[hNode]
	lock        locks.TAS
	marked      atomic.Bool
	fullyLinked atomic.Bool
	topLevel    int
}

// Herlihy is the simple optimistic skip list of Herlihy, Lev, Luchangco and
// Shavit (Table 1): updates optimistically find the target, lock the
// predecessors at every level, validate, and apply; searches traverse
// without locks and consult the marked/fullyLinked flags. With ReadOnlyFail
// (ASCY3, applied by the paper to this algorithm), failed updates return
// without locking.
type Herlihy struct {
	core.OrderedVia
	head         *hNode
	maxLevel     int
	readOnlyFail bool
}

// NewHerlihy returns an empty optimistic skip list.
func NewHerlihy(cfg core.Config) *Herlihy {
	ml := clampLevel(cfg)
	tail := newHNode(tailKey, 0, ml)
	tail.fullyLinked.Store(true)
	head := newHNode(headKey, 0, ml)
	for i := range head.next {
		head.next[i].Store(tail)
	}
	head.fullyLinked.Store(true)
	s := &Herlihy{head: head, maxLevel: ml, readOnlyFail: cfg.ReadOnlyFail}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

func newHNode(k core.Key, v core.Value, h int) *hNode {
	return &hNode{key: k, val: v, next: make([]atomic.Pointer[hNode], h), topLevel: h}
}

// parse fills preds/succs and returns the highest level at which a node
// with key k was found (-1 if none).
func (l *Herlihy) parse(c *perf.Ctx, k core.Key, preds, succs []*hNode) int {
	found := -1
	pred := l.head
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		curr := pred.next[lvl].Load()
		for curr.key < k {
			c.Inc(perf.EvTraverse)
			pred = curr
			curr = curr.next[lvl].Load()
		}
		if found < 0 && curr.key == k {
			found = lvl
		}
		preds[lvl] = pred
		succs[lvl] = curr
	}
	return found
}

// SearchCtx implements core.Instrumented: wait-free traversal; the result is
// decided by the (fullyLinked, marked) flags of the candidate.
func (l *Herlihy) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	pred := l.head
	var cand *hNode
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		curr := pred.next[lvl].Load()
		for curr.key < k {
			c.Inc(perf.EvTraverse)
			pred = curr
			curr = curr.next[lvl].Load()
		}
		if curr.key == k {
			cand = curr
			if curr.fullyLinked.Load() && !curr.marked.Load() {
				return curr.val, true
			}
		}
	}
	if cand != nil && cand.fullyLinked.Load() && !cand.marked.Load() {
		return cand.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Herlihy) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	var preds, succs [maxHeight]*hNode
	h := randomLevel(l.maxLevel)
	for {
		c.ParseBegin()
		found := l.parse(c, k, preds[:l.maxLevel], succs[:l.maxLevel])
		c.ParseEnd()
		if found >= 0 {
			cand := succs[found]
			if !cand.marked.Load() {
				// Present (ASCY3: fail read-only). A candidate
				// that is not yet fully linked will be the
				// moment its inserter finishes, so wait for
				// the flag before reporting failure.
				for i := 0; !cand.fullyLinked.Load(); {
					i = locks.Pause(i)
					c.Inc(perf.EvWait)
				}
				return false
			}
			// Marked: its removal is in progress; retry.
			c.Inc(perf.EvParseRestart)
			continue
		}
		// Lock all predecessors up to the new tower's height and
		// validate adjacency and liveness.
		highest := -1
		valid := true
		for lvl := 0; valid && lvl < h; lvl++ {
			pred := preds[lvl]
			if lvl == 0 || pred != preds[lvl-1] {
				pred.lock.Lock()
				c.Inc(perf.EvLock)
			}
			highest = lvl
			valid = !pred.marked.Load() && !succs[lvl].marked.Load() &&
				pred.next[lvl].Load() == succs[lvl]
		}
		if !valid {
			unlockPreds(preds[:], highest)
			c.Inc(perf.EvParseRestart)
			continue
		}
		node := newHNode(k, v, h)
		for lvl := 0; lvl < h; lvl++ {
			node.next[lvl].Store(succs[lvl])
		}
		for lvl := 0; lvl < h; lvl++ {
			preds[lvl].next[lvl].Store(node)
			c.Inc(perf.EvStore)
		}
		node.fullyLinked.Store(true) // linearization point
		c.Inc(perf.EvStore)
		unlockPreds(preds[:], highest)
		return true
	}
}

// unlockPreds unlocks preds[0..highest], skipping duplicates (the same pred
// can guard several levels and is locked once).
func unlockPreds(preds []*hNode, highest int) {
	for lvl := 0; lvl <= highest; lvl++ {
		if lvl == 0 || preds[lvl] != preds[lvl-1] {
			preds[lvl].lock.Unlock()
		}
	}
}

// RemoveCtx implements core.Instrumented.
func (l *Herlihy) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	var preds, succs [maxHeight]*hNode
	var victim *hNode
	isMarked := false
	topLevel := -1
	for {
		c.ParseBegin()
		found := l.parse(c, k, preds[:l.maxLevel], succs[:l.maxLevel])
		c.ParseEnd()
		if found >= 0 {
			victim = succs[found]
		}
		if !isMarked {
			okToDelete := found >= 0 && victim.fullyLinked.Load() &&
				victim.topLevel-1 == found && !victim.marked.Load()
			if !okToDelete {
				return 0, false // ASCY3: fail without locking
			}
			topLevel = victim.topLevel
			victim.lock.Lock()
			c.Inc(perf.EvLock)
			if victim.marked.Load() {
				victim.lock.Unlock()
				return 0, false // lost the race to another remover
			}
			victim.marked.Store(true) // linearization point
			c.Inc(perf.EvStore)
			isMarked = true
		}
		// Lock predecessors and validate, then unlink every level.
		highest := -1
		valid := true
		for lvl := 0; valid && lvl < topLevel; lvl++ {
			pred := preds[lvl]
			if lvl == 0 || pred != preds[lvl-1] {
				pred.lock.Lock()
				c.Inc(perf.EvLock)
			}
			highest = lvl
			valid = !pred.marked.Load() && pred.next[lvl].Load() == victim
		}
		if !valid {
			unlockPreds(preds[:], highest)
			c.Inc(perf.EvParseRestart)
			continue
		}
		for lvl := topLevel - 1; lvl >= 0; lvl-- {
			preds[lvl].next[lvl].Store(victim.next[lvl].Load())
			c.Inc(perf.EvStore)
		}
		victim.lock.Unlock()
		unlockPreds(preds[:], highest)
		return victim.val, true
	}
}

// Search looks up k.
func (l *Herlihy) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Herlihy) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Herlihy) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }
