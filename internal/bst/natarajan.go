package bst

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/perf"
)

// nmEdge is an immutable (child, flag, tag) record: the Go rendering of
// Natarajan & Mittal's packed pointer bits. flag marks an edge whose child
// leaf is under deletion; tag freezes a sibling edge during the splice.
// Flags only ever appear on edges to leaves; tagged or flagged edges are
// never modified except by the splice that removes them, which is what lets
// a whole chain of retired routers be cut out with a single CAS.
type nmEdge struct {
	n    *nmNode
	flag bool
	tag  bool
}

type nmNode struct {
	key      core.Key
	val      core.Value
	left     atomic.Pointer[nmEdge]
	right    atomic.Pointer[nmEdge]
	internal bool
}

func newNMLeaf(k core.Key, v core.Value) *nmNode {
	return &nmNode{key: k, val: v}
}

func (n *nmNode) edge(left bool) *atomic.Pointer[nmEdge] {
	if left {
		return &n.left
	}
	return &n.right
}

// nmRec is the seek record: ancestor→successor is the deepest clean edge on
// the path; parent→leaf is the final edge. succEdge/leafEdge are the exact
// records read, for the callers' CASes.
type nmRec struct {
	ancestor, successor, parent, leaf *nmNode
	succEdge, leafEdge                *nmEdge
}

// Natarajan is the natarajan tree of Table 1 (Natarajan & Mittal, PPoPP'14):
// an external lock-free BST that marks *edges* rather than nodes and
// "minimizes the number of atomic operations and optimistically
// searches/parses the tree" — the paper measures it at ~2 atomics per
// update, closest to the asynchronized bound of all prior BSTs (Figure 7).
// Searches are pure traversals (ASCY1); deletion injects a flag on the leaf
// edge, then tags the sibling edge and splices at the ancestor.
type Natarajan struct {
	core.OrderedVia
	root *nmNode // sentinel R; R.left -> sentinel S; user tree under S.left
}

// NewNatarajan returns an empty tree with the R/S sentinel structure.
func NewNatarajan(cfg core.Config) *Natarajan {
	r := &nmNode{key: sentinelKey, internal: true}
	s := &nmNode{key: sentinelKey, internal: true}
	s.left.Store(&nmEdge{n: newNMLeaf(sentinelKey, 0)})
	s.right.Store(&nmEdge{n: newNMLeaf(sentinelKey, 0)})
	r.left.Store(&nmEdge{n: s})
	r.right.Store(&nmEdge{n: newNMLeaf(sentinelKey, 0)})
	t := &Natarajan{root: r}
	t.OrderedVia = core.OrderedVia{Ascend: t.ascend}
	return t
}

// seek descends to the leaf for k, maintaining the deepest untagged edge on
// the path as (ancestor → successor): everything below that edge may belong
// to in-flight deletions (tagged/flagged edges are frozen), so that is where
// a cleanup splice must happen. Flags only appear on edges to leaves, which
// is why testing the tag bit on edges into internal nodes suffices — the
// original algorithm's invariant.
func (t *Natarajan) seek(c *perf.Ctx, k core.Key) nmRec {
	rEdge := t.root.left.Load() // R → S
	s := rEdge.n
	sEdge := s.left.Load() // S → first node
	rec := nmRec{
		ancestor:  t.root,
		successor: s,
		parent:    s,
		leaf:      sEdge.n,
		succEdge:  rEdge,
		leafEdge:  sEdge,
	}
	parentField := sEdge // edge into rec.leaf
	for rec.leaf.internal {
		c.Inc(perf.EvTraverse)
		currentField := rec.leaf.edge(k < rec.leaf.key).Load()
		if !parentField.tag {
			rec.ancestor, rec.successor, rec.succEdge = rec.parent, rec.leaf, parentField
		}
		rec.parent = rec.leaf
		rec.leaf = currentField.n
		rec.leafEdge = currentField
		parentField = currentField
	}
	return rec
}

// cleanup completes (or helps complete) the deletion whose flag sits at the
// parent recorded in rec, by tagging the surviving sibling edge and splicing
// it up to the ancestor with one CAS. Returns whether the splice succeeded.
func (t *Natarajan) cleanup(c *perf.Ctx, k core.Key, rec nmRec) bool {
	ancestor, parent := rec.ancestor, rec.parent
	succAddr := ancestor.edge(k < ancestor.key)
	childLeft := k < parent.key
	childAddr := parent.edge(childLeft)
	siblingAddr := parent.edge(!childLeft)
	if !childAddr.Load().flag {
		// The deletion in progress is for the other child; our side
		// survives as the "sibling".
		siblingAddr = childAddr
	}
	// Freeze the surviving edge with a tag.
	for {
		f := siblingAddr.Load()
		if f.tag {
			break
		}
		if siblingAddr.CompareAndSwap(f, &nmEdge{n: f.n, flag: f.flag, tag: true}) {
			c.Inc(perf.EvCAS)
			break
		}
		c.Inc(perf.EvCASFail)
	}
	f := siblingAddr.Load()
	// Splice: ancestor adopts the sibling; its flag (a pending deletion of
	// the sibling leaf) survives the move, the tag does not.
	if succAddr.CompareAndSwap(rec.succEdge, &nmEdge{n: f.n, flag: f.flag}) {
		c.Inc(perf.EvCAS)
		c.Inc(perf.EvCleanup)
		return true
	}
	c.Inc(perf.EvCASFail)
	return false
}

// SearchCtx implements core.Instrumented: the sequential search, untouched.
func (t *Natarajan) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	curr := t.root.left.Load().n
	for curr.internal {
		c.Inc(perf.EvTraverse)
		if k < curr.key {
			curr = curr.left.Load().n
		} else {
			curr = curr.right.Load().n
		}
	}
	if curr.key == k {
		return curr.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (t *Natarajan) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	for {
		c.ParseBegin()
		rec := t.seek(c, k)
		c.ParseEnd()
		if rec.leaf.key == k {
			return false // ASCY3 comes for free: no stores so far
		}
		parent := rec.parent
		childAddr := parent.edge(k < parent.key)
		leaf := rec.leaf
		if rec.leafEdge.flag || rec.leafEdge.tag {
			// The leaf is under deletion: swapping its edge for a router
			// would drop the flag and bring the leaf back. Finish the
			// removal first.
			c.Inc(perf.EvHelp)
			t.cleanup(c, k, rec)
			c.Inc(perf.EvRestart)
			continue
		}
		nl := newNMLeaf(k, v)
		router := &nmNode{internal: true}
		if k < leaf.key {
			router.key = leaf.key
			router.left.Store(&nmEdge{n: nl})
			router.right.Store(&nmEdge{n: leaf})
		} else {
			router.key = k
			router.left.Store(&nmEdge{n: leaf})
			router.right.Store(&nmEdge{n: nl})
		}
		if childAddr.CompareAndSwap(rec.leafEdge, &nmEdge{n: router}) {
			c.Inc(perf.EvCAS)
			return true
		}
		c.Inc(perf.EvCASFail)
		// Help a pending deletion at this edge before retrying.
		cur := childAddr.Load()
		if cur.n == leaf && (cur.flag || cur.tag) {
			c.Inc(perf.EvHelp)
			t.cleanup(c, k, rec)
		}
		c.Inc(perf.EvRestart)
	}
}

// RemoveCtx implements core.Instrumented: injection (flag the leaf edge)
// then cleanup (tag sibling, splice at ancestor), helping as needed.
func (t *Natarajan) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	injected := false
	var leaf *nmNode
	var val core.Value
	for {
		c.ParseBegin()
		rec := t.seek(c, k)
		c.ParseEnd()
		if !injected {
			leaf = rec.leaf
			if leaf.key != k {
				return 0, false // ASCY3
			}
			val = leaf.val
			parent := rec.parent
			childAddr := parent.edge(k < parent.key)
			if rec.leafEdge.flag || rec.leafEdge.tag || rec.leafEdge.n != leaf {
				c.Inc(perf.EvRestart)
				continue
			}
			if childAddr.CompareAndSwap(rec.leafEdge, &nmEdge{n: leaf, flag: true}) {
				c.Inc(perf.EvCAS)
				injected = true
				if t.cleanup(c, k, rec) {
					return val, true
				}
			} else {
				c.Inc(perf.EvCASFail)
				cur := childAddr.Load()
				if cur.n == leaf && (cur.flag || cur.tag) {
					c.Inc(perf.EvHelp)
					t.cleanup(c, k, rec)
				}
				c.Inc(perf.EvRestart)
			}
			continue
		}
		// Cleanup mode: our flag is planted; finish unless someone
		// already did.
		if rec.leaf != leaf {
			return val, true // helped to completion by another thread
		}
		if t.cleanup(c, k, rec) {
			return val, true
		}
		c.Inc(perf.EvRestart)
	}
}

// Search looks up k.
func (t *Natarajan) Search(k core.Key) (core.Value, bool) { return t.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (t *Natarajan) Insert(k core.Key, v core.Value) bool { return t.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (t *Natarajan) Remove(k core.Key) (core.Value, bool) { return t.RemoveCtx(nil, k) }
