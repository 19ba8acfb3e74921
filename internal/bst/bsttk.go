package bst

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/perf"
)

// dualLock is BST-TK's pair of small versioned ticket locks packed into one
// word (§6.2: "we further optimize the tree by assigning two smaller ticket
// locks to each node, so that the left and the right pointers can be locked
// separately"). Layout, high to low: left ticket:16, left version:16,
// right ticket:16, right version:16. A half is unlocked iff ticket ==
// version; acquiring "version v" is a single CAS that simultaneously
// validates (the version the parse observed is still current) and locks —
// steps 3–4 and 6–7 of Figure 10 collapsed into the lock word.
//
// 16-bit versions wrap after 65535 updates of one edge; a parse would have
// to stall across exactly 65536 updates of the same edge to be fooled,
// which is beyond any practical exposure (the C original has the same
// property at 32 bits).
type dualLock struct {
	w atomic.Uint64
}

const (
	ltShift = 48
	lvShift = 32
	rtShift = 16
	rvShift = 0
	half16  = 0xFFFF
)

func lockedHalf(w uint64, left bool) bool {
	if left {
		return (w>>ltShift)&half16 != (w>>lvShift)&half16
	}
	return (w>>rtShift)&half16 != (w>>rvShift)&half16
}

func versionHalf(w uint64, left bool) uint16 {
	if left {
		return uint16(w >> lvShift)
	}
	return uint16(w >> rvShift)
}

// tryLockEdge acquires the left or right half iff its version is still v.
// The CAS retries only when the *other* half moved underneath (that does not
// invalidate this half's version).
func (l *dualLock) tryLockEdge(left bool, v uint16) bool {
	for {
		w := l.w.Load()
		if lockedHalf(w, left) || versionHalf(w, left) != v {
			return false
		}
		var nw uint64
		if left {
			nw = w&^(uint64(half16)<<ltShift) | uint64(v+1)<<ltShift
		} else {
			nw = w&^(uint64(half16)<<rtShift) | uint64(v+1)<<rtShift
		}
		if l.w.CompareAndSwap(w, nw) {
			return true
		}
	}
}

// unlockEdge releases a held half, publishing the new version.
func (l *dualLock) unlockEdge(left bool) {
	for {
		w := l.w.Load()
		var nw uint64
		if left {
			v := uint16(w >> ltShift) // ticket = version+1 while held
			nw = w&^(uint64(half16)<<lvShift) | uint64(v)<<lvShift
		} else {
			v := uint16(w >> rtShift)
			nw = w&^(uint64(half16)<<rvShift) | uint64(v)<<rvShift
		}
		if l.w.CompareAndSwap(w, nw) {
			return
		}
	}
}

// tryLockBoth acquires both halves at the observed versions with one CAS.
// Used by removals to freeze the node being spliced out; the node is never
// unlocked (it is retired), so any later parse that reaches it fails its
// acquisition and restarts.
func (l *dualLock) tryLockBoth(lv, rv uint16) bool {
	old := uint64(lv)<<ltShift | uint64(lv)<<lvShift | uint64(rv)<<rtShift | uint64(rv)<<rvShift
	nw := uint64(lv+1)<<ltShift | uint64(lv)<<lvShift | uint64(rv+1)<<rtShift | uint64(rv)<<rvShift
	return l.w.CompareAndSwap(old, nw)
}

// tkNode is one node of BST-TK, router or leaf, in the sequential external
// node's 32 bytes (seNode): a size class that divides a 64-byte line, so a
// hop touches one line. A node is a leaf iff left is nil — a router
// publishes both children before it is linked and a remove only ever
// stores a sibling, never nil. The last word is a union: a router's
// dualLock, or a leaf's value. A leaf's word is written before the leaf is
// published and only ever Loaded; no lock operation reaches a leaf,
// because parse reads versions only of routers and updates lock only the
// parent and grandparent, which are routers.
type tkNode struct {
	key         core.Key
	left, right atomic.Pointer[tkNode] // left == nil for leaves
	lock        dualLock               // router: edge locks; leaf: value
}

// newTKLeaf returns an unpublished leaf holding (k, v).
func newTKLeaf(k core.Key, v core.Value) *tkNode {
	n := &tkNode{key: k}
	n.lock.w.Store(uint64(v))
	return n
}

func (n *tkNode) isLeaf() bool { return n.left.Load() == nil }

// val is a leaf's value.
func (n *tkNode) val() core.Value { return core.Value(n.lock.w.Load()) }

func (n *tkNode) child(left bool) *atomic.Pointer[tkNode] {
	if left {
		return &n.left
	}
	return &n.right
}

// TK is BST-TK (§6.2): an external tree whose routers carry the dualLock
// version/lock word and whose leaves carry the elements. Updates parse
// optimistically, recording edge versions; the update then acquires exactly
// the observed versions (1 edge for an insert, the grandparent edge plus
// both halves of the parent for a remove) — failure means a concurrent
// update intervened, so the operation restarts, exactly as in Figure 10.
// Searches are pure traversals (ASCY1); unsuccessful updates return after
// the parse (ASCY3).
type TK struct {
	core.OrderedVia
	groot *tkNode // sentinel router above the user tree
}

// NewTK returns an empty BST-TK.
func NewTK(cfg core.Config) *TK {
	groot := &tkNode{key: sentinelKey}
	groot.left.Store(newTKLeaf(sentinelKey, 0))
	groot.right.Store(newTKLeaf(sentinelKey, 0))
	s := &TK{groot: groot}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// SearchCtx implements core.Instrumented: the sequential external-tree
// search, untouched. A leaf's children are both nil, so the child load that
// takes a hop also detects the leaf.
func (t *TK) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	curr := t.groot.left.Load()
	for {
		next := curr.child(k < curr.key).Load()
		if next == nil {
			break
		}
		c.Inc(perf.EvTraverse)
		curr = next
	}
	if curr.key == k {
		return curr.val(), true
	}
	return 0, false
}

// parse walks to the leaf for k, recording the parent edge (and grandparent
// edge) with the lock versions observed *before* loading each child, so a
// successful TryLock*(version) proves the edge did not change since.
func (t *TK) parse(c *perf.Ctx, k core.Key) (gp *tkNode, gpLeft bool, vGP uint16,
	p *tkNode, pLeft bool, vP uint16, leaf *tkNode) {
	p, pLeft = t.groot, true
	vP = versionHalf(p.lock.w.Load(), true)
	curr := p.left.Load()
	for !curr.isLeaf() {
		c.Inc(perf.EvTraverse)
		gp, gpLeft, vGP = p, pLeft, vP
		dir := k < curr.key
		v := versionHalf(curr.lock.w.Load(), dir)
		next := curr.child(dir).Load()
		p, pLeft, vP = curr, dir, v
		curr = next
	}
	return gp, gpLeft, vGP, p, pLeft, vP, curr
}

// InsertCtx implements core.Instrumented. One lock acquisition per
// successful insert.
func (t *TK) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	for {
		c.ParseBegin()
		_, _, _, p, pLeft, vP, leaf := t.parse(c, k)
		c.ParseEnd()
		if leaf.key == k {
			return false // ASCY3: no stores on unsuccessful parse
		}
		nl := newTKLeaf(k, v)
		router := &tkNode{}
		if k < leaf.key {
			router.key = leaf.key
			router.left.Store(nl)
			router.right.Store(leaf)
		} else {
			router.key = k
			router.left.Store(leaf)
			router.right.Store(nl)
		}
		if !p.lock.tryLockEdge(pLeft, vP) {
			c.Inc(perf.EvCASFail)
			c.Inc(perf.EvRestart)
			continue
		}
		c.Inc(perf.EvLock)
		p.child(pLeft).Store(router)
		c.Inc(perf.EvStore)
		p.lock.unlockEdge(pLeft)
		return true
	}
}

// RemoveCtx implements core.Instrumented. Two lock acquisitions per
// successful remove: the grandparent edge and the parent's full lock word.
func (t *TK) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		c.ParseBegin()
		gp, gpLeft, vGP, p, pLeft, _, leaf := t.parse(c, k)
		c.ParseEnd()
		if leaf.key != k {
			return 0, false // ASCY3
		}
		if gp == nil {
			// Only the initial sentinel leaf hangs directly off the
			// sentinel router, and its key never matches.
			return 0, false
		}
		// Take a consistent view of the parent's two versions, then
		// re-validate the leaf edge under that view.
		w := p.lock.w.Load()
		if lockedHalf(w, true) || lockedHalf(w, false) {
			c.Inc(perf.EvRestart)
			continue
		}
		lv, rv := versionHalf(w, true), versionHalf(w, false)
		if p.child(pLeft).Load() != leaf {
			c.Inc(perf.EvRestart)
			continue
		}
		if !gp.lock.tryLockEdge(gpLeft, vGP) {
			c.Inc(perf.EvCASFail)
			c.Inc(perf.EvRestart)
			continue
		}
		c.Inc(perf.EvLock)
		if !p.lock.tryLockBoth(lv, rv) {
			c.Inc(perf.EvCASFail)
			gp.lock.unlockEdge(gpLeft)
			c.Inc(perf.EvRestart)
			continue
		}
		c.Inc(perf.EvLock)
		sibling := p.child(!pLeft).Load()
		gp.child(gpLeft).Store(sibling)
		c.Inc(perf.EvStore)
		gp.lock.unlockEdge(gpLeft)
		// p stays locked forever: it is retired, and the dead lock
		// word makes any straggler's version acquisition fail.
		return leaf.val(), true
	}
}

// Search looks up k.
func (t *TK) Search(k core.Key) (core.Value, bool) { return t.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (t *TK) Insert(k core.Key, v core.Value) bool { return t.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (t *TK) Remove(k core.Key) (core.Value, bool) { return t.RemoveCtx(nil, k) }

// Size counts non-sentinel leaves. Quiescent use only.
func (t *TK) Size() int {
	n := 0
	stack := []*tkNode{t.groot.left.Load()}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd.isLeaf() {
			if nd.key != sentinelKey {
				n++
			}
			continue
		}
		stack = append(stack, nd.left.Load(), nd.right.Load())
	}
	return n
}
