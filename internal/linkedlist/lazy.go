package linkedlist

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/perf"
)

// lazyNode: next and marked are read optimistically, so both are atomic;
// they are only written with the node's lock held.
type lazyNode struct {
	key    core.Key
	val    core.Value
	next   atomic.Pointer[lazyNode]
	marked atomic.Bool
	lock   locks.TAS
}

// Lazy is the lazy list of Heller et al. (Table 1): nodes are deleted in two
// steps — logical marking, then physical unlinking — both under per-node
// locks, while searches traverse without any synchronization and simply
// check the mark. The search already satisfies ASCY1; with ReadOnlyFail
// (ASCY3, the library default) unsuccessful updates are read-only too.
type Lazy struct {
	core.OrderedVia
	head         *lazyNode
	readOnlyFail bool
}

// NewLazy returns an empty lazy list.
func NewLazy(cfg core.Config) *Lazy {
	tail := &lazyNode{key: tailKey}
	head := &lazyNode{key: headKey}
	head.next.Store(tail)
	s := &Lazy{head: head, readOnlyFail: cfg.ReadOnlyFail}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// parse optimistically walks to the first node with key >= k.
func (l *Lazy) parse(c *perf.Ctx, k core.Key) (pred, curr *lazyNode) {
	pred = l.head
	curr = pred.next.Load()
	for curr.key < k {
		c.Inc(perf.EvTraverse)
		pred = curr
		curr = curr.next.Load()
	}
	return pred, curr
}

// validate re-checks, with locks held, that pred and curr are unmarked and
// still adjacent — the lazy list's classic post-lock validation.
func validateLazy(pred, curr *lazyNode) bool {
	return !pred.marked.Load() && !curr.marked.Load() && pred.next.Load() == curr
}

// SearchCtx implements core.Instrumented. Wait-free: no stores, no retries.
func (l *Lazy) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	curr := l.head
	for curr.key < k {
		c.Inc(perf.EvTraverse)
		curr = curr.next.Load()
	}
	if curr.key == k && !curr.marked.Load() {
		return curr.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Lazy) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	for {
		c.ParseBegin()
		pred, curr := l.parse(c, k)
		c.ParseEnd()
		if l.readOnlyFail && curr.key == k && !curr.marked.Load() {
			return false // ASCY3: fail without a single store
		}
		pred.lock.Lock()
		c.Inc(perf.EvLock)
		if !validateLazy(pred, curr) {
			pred.lock.Unlock()
			c.Inc(perf.EvParseRestart)
			continue
		}
		if curr.key == k {
			// Only reachable with ASCY3 off (or a racing insert of
			// the same key that won validation first).
			pred.lock.Unlock()
			return false
		}
		n := &lazyNode{key: k, val: v}
		n.next.Store(curr)
		pred.next.Store(n)
		c.Inc(perf.EvStore)
		pred.lock.Unlock()
		return true
	}
}

// RemoveCtx implements core.Instrumented.
func (l *Lazy) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		c.ParseBegin()
		pred, curr := l.parse(c, k)
		c.ParseEnd()
		if l.readOnlyFail && (curr.key != k || curr.marked.Load()) {
			return 0, false // ASCY3: fail without a single store
		}
		pred.lock.Lock()
		c.Inc(perf.EvLock)
		curr.lock.Lock()
		c.Inc(perf.EvLock)
		if !validateLazy(pred, curr) {
			curr.lock.Unlock()
			pred.lock.Unlock()
			c.Inc(perf.EvParseRestart)
			continue
		}
		if curr.key != k {
			curr.lock.Unlock()
			pred.lock.Unlock()
			return 0, false
		}
		curr.marked.Store(true) // logical delete
		c.Inc(perf.EvStore)
		pred.next.Store(curr.next.Load()) // physical delete
		c.Inc(perf.EvStore)
		val := curr.val
		curr.lock.Unlock()
		pred.lock.Unlock()
		return val, true
	}
}

// Search looks up k.
func (l *Lazy) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Lazy) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Lazy) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }
