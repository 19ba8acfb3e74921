package bst

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/perf"
)

// Bronson et al. (PPoPP'10): a partially external BST with optimistic
// hand-over-hand validation over per-node version numbers. Readers descend
// without locks, validating each step against the version observed before
// following the edge; if they meet a node whose version has the CHANGING
// bit set they *block* (spin) until the structural change completes — the
// behaviour Table 1 records as "a search/parse can block waiting for a
// concurrent update to complete". Deleting a node with two children merely
// clears its value, leaving a routing node that a later insert of the same
// key can revive — the "partially external" part.
//
// Divergence note: the original couples this scheme with relaxed AVL
// rebalancing; rebalancing is not implemented here (uniform random keys
// keep expected depth logarithmic), so CHANGING covers unlinks rather than
// rotations. The synchronization protocol — version validation, blocking
// waits, per-node locks — is the original's.

const (
	bvChanging uint64 = 1 // structural change in progress
	bvUnlinked uint64 = 2 // node removed from the tree
	bvStep     uint64 = 4 // version increment
)

type brNode struct {
	key core.Key
	// val is atomic: a routing-node revival writes it under the node
	// lock while searches read it lock-free after checking hasVal.
	val     atomic.Uint64
	hasVal  atomic.Bool
	version atomic.Uint64
	left    atomic.Pointer[brNode]
	right   atomic.Pointer[brNode]
	lock    locks.TAS
}

// result codes for the attempt functions.
const (
	brRetry int32 = iota // version changed: caller revalidates
	brFound
	brNotFound
)

// Bronson is the bronson tree of Table 1.
type Bronson struct {
	core.OrderedVia
	root *brNode // sentinel, key 0; user tree entirely in root.right
}

// NewBronson returns an empty tree.
func NewBronson(cfg core.Config) *Bronson {
	s := &Bronson{root: &brNode{key: 0}}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

func (n *brNode) child(k core.Key) *atomic.Pointer[brNode] {
	if k < n.key {
		return &n.left
	}
	return &n.right
}

// waitUntilNotChanging spins while n's structural change is in flight.
func waitUntilNotChanging(c *perf.Ctx, n *brNode) {
	if n.version.Load()&bvChanging == 0 {
		return
	}
	c.Inc(perf.EvWait)
	for i := 0; n.version.Load()&bvChanging != 0; {
		i = locks.Pause(i)
	}
}

// SearchCtx implements core.Instrumented.
func (t *Bronson) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		v, res := t.attemptGet(c, k, t.root, t.root.version.Load())
		if res != brRetry {
			return v, res == brFound
		}
		c.Inc(perf.EvRestart)
	}
}

// attemptGet searches for k under node, which was observed at version nodeV.
func (t *Bronson) attemptGet(c *perf.Ctx, k core.Key, node *brNode, nodeV uint64) (core.Value, int32) {
	for {
		child := node.child(k).Load()
		if node.version.Load() != nodeV {
			return 0, brRetry
		}
		if child == nil {
			return 0, brNotFound // validated: edge was null at version nodeV
		}
		c.Inc(perf.EvTraverse)
		if child.key == k {
			// Value nodes answer found; routing nodes answer not
			// found. No version check needed: the pair is
			// immutable while hasVal, and hasVal is atomic.
			if child.hasVal.Load() {
				return core.Value(child.val.Load()), brFound
			}
			return 0, brNotFound
		}
		childV := child.version.Load()
		if childV&bvChanging != 0 {
			waitUntilNotChanging(c, child)
			continue // re-read the edge
		}
		if childV&bvUnlinked != 0 {
			continue // stale edge; re-read
		}
		if node.child(k).Load() != child {
			continue
		}
		v, res := t.attemptGet(c, k, child, childV)
		if res != brRetry {
			return v, res
		}
		// Child-level retry: revalidate our own version before
		// descending again; if we changed too, propagate up.
		if node.version.Load() != nodeV {
			return 0, brRetry
		}
	}
}

// InsertCtx implements core.Instrumented.
func (t *Bronson) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	for {
		ok, res := t.attemptInsert(c, k, v, t.root, t.root.version.Load())
		if res != brRetry {
			return ok
		}
		c.Inc(perf.EvRestart)
	}
}

func (t *Bronson) attemptInsert(c *perf.Ctx, k core.Key, v core.Value, node *brNode, nodeV uint64) (bool, int32) {
	for {
		slot := node.child(k)
		child := slot.Load()
		if node.version.Load() != nodeV {
			return false, brRetry
		}
		if child == nil {
			// Try to link a fresh node here.
			node.lock.Lock()
			c.Inc(perf.EvLock)
			if node.version.Load()&bvUnlinked != 0 {
				node.lock.Unlock()
				return false, brRetry
			}
			if slot.Load() != nil {
				node.lock.Unlock()
				continue // someone linked first; re-examine
			}
			n := &brNode{key: k}
			n.val.Store(uint64(v))
			n.hasVal.Store(true)
			slot.Store(n)
			c.Inc(perf.EvStore)
			node.lock.Unlock()
			return true, brFound
		}
		c.Inc(perf.EvTraverse)
		if child.key == k {
			if child.hasVal.Load() {
				return false, brFound // ASCY3: read-only duplicate fail
			}
			// Routing node: revive it with our value.
			child.lock.Lock()
			c.Inc(perf.EvLock)
			if child.version.Load()&bvUnlinked != 0 {
				child.lock.Unlock()
				continue
			}
			if child.hasVal.Load() {
				child.lock.Unlock()
				return false, brFound
			}
			child.val.Store(uint64(v))
			child.hasVal.Store(true)
			c.Inc(perf.EvStore)
			child.lock.Unlock()
			return true, brFound
		}
		childV := child.version.Load()
		if childV&bvChanging != 0 {
			waitUntilNotChanging(c, child)
			continue
		}
		if childV&bvUnlinked != 0 {
			continue
		}
		if slot.Load() != child {
			continue
		}
		ok, res := t.attemptInsert(c, k, v, child, childV)
		if res != brRetry {
			return ok, res
		}
		if node.version.Load() != nodeV {
			return false, brRetry
		}
	}
}

// RemoveCtx implements core.Instrumented.
func (t *Bronson) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		v, res := t.attemptRemove(c, k, t.root, t.root.version.Load())
		if res != brRetry {
			return v, res == brFound
		}
		c.Inc(perf.EvRestart)
	}
}

func (t *Bronson) attemptRemove(c *perf.Ctx, k core.Key, node *brNode, nodeV uint64) (core.Value, int32) {
	for {
		slot := node.child(k)
		child := slot.Load()
		if node.version.Load() != nodeV {
			return 0, brRetry
		}
		if child == nil {
			return 0, brNotFound // ASCY3: fail read-only
		}
		c.Inc(perf.EvTraverse)
		if child.key == k {
			if !child.hasVal.Load() {
				return 0, brNotFound // routing node: absent, read-only
			}
			if child.left.Load() != nil && child.right.Load() != nil {
				// Two children: partially external removal —
				// demote to a routing node under one lock.
				child.lock.Lock()
				c.Inc(perf.EvLock)
				if child.version.Load()&bvUnlinked != 0 || !child.hasVal.Load() {
					child.lock.Unlock()
					continue
				}
				if child.left.Load() == nil || child.right.Load() == nil {
					child.lock.Unlock()
					continue // shape changed; unlink instead
				}
				val := core.Value(child.val.Load())
				child.hasVal.Store(false)
				c.Inc(perf.EvStore)
				child.lock.Unlock()
				return val, brFound
			}
			// At most one child: unlink under parent + node locks.
			node.lock.Lock()
			c.Inc(perf.EvLock)
			if node.version.Load()&bvUnlinked != 0 || slot.Load() != child {
				node.lock.Unlock()
				continue
			}
			child.lock.Lock()
			c.Inc(perf.EvLock)
			if !child.hasVal.Load() {
				child.lock.Unlock()
				node.lock.Unlock()
				return 0, brNotFound
			}
			l, r := child.left.Load(), child.right.Load()
			if l != nil && r != nil {
				child.lock.Unlock()
				node.lock.Unlock()
				continue // grew a second child; demote instead
			}
			grand := l
			if grand == nil {
				grand = r
			}
			// Publish the shrink: CHANGING while the edge swings.
			child.version.Add(bvChanging)
			slot.Store(grand)
			c.Inc(perf.EvStore)
			child.version.Store((child.version.Load()+bvStep)&^bvChanging | bvUnlinked)
			val := core.Value(child.val.Load())
			child.hasVal.Store(false)
			child.lock.Unlock()
			node.lock.Unlock()
			return val, brFound
		}
		childV := child.version.Load()
		if childV&bvChanging != 0 {
			waitUntilNotChanging(c, child)
			continue
		}
		if childV&bvUnlinked != 0 {
			continue
		}
		if slot.Load() != child {
			continue
		}
		v, res := t.attemptRemove(c, k, child, childV)
		if res != brRetry {
			return v, res
		}
		if node.version.Load() != nodeV {
			return 0, brRetry
		}
	}
}

// Search looks up k.
func (t *Bronson) Search(k core.Key) (core.Value, bool) { return t.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (t *Bronson) Insert(k core.Key, v core.Value) bool { return t.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (t *Bronson) Remove(k core.Key) (core.Value, bool) { return t.RemoveCtx(nil, k) }
