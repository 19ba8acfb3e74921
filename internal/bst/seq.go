package bst

import (
	"repro/internal/core"
	"repro/internal/perf"
)

// ---------------------------------------------------------------------------
// Sequential internal BST (async-int).

type siNode struct {
	key         core.Key
	val         core.Value
	left, right *siNode
}

// SeqInt is a textbook internal BST. Shared unsynchronized it is the
// async-int upper bound; traversals are bounded by AsyncStepLimit because
// racing updates can malform the tree.
type SeqInt struct {
	core.OrderedVia
	root  *siNode // sentinel: real tree hangs off root.left
	limit int
}

// NewSeqInt returns an empty sequential internal BST.
func NewSeqInt(cfg core.Config) *SeqInt {
	s := &SeqInt{root: &siNode{key: sentinelKey}, limit: cfg.AsyncStepLimit}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// SearchCtx implements core.Instrumented.
func (t *SeqInt) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	curr := t.root.left
	steps := 0
	for curr != nil {
		c.Inc(perf.EvTraverse)
		if k == curr.key {
			return curr.val, true
		}
		if k < curr.key {
			curr = curr.left
		} else {
			curr = curr.right
		}
		if steps++; t.limit > 0 && steps > t.limit {
			return 0, false
		}
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (t *SeqInt) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	c.ParseBegin()
	pred, curr := t.root, t.root.left
	goLeft := true
	steps := 0
	for curr != nil {
		c.Inc(perf.EvTraverse)
		if k == curr.key {
			c.ParseEnd()
			return false
		}
		pred = curr
		if k < curr.key {
			curr, goLeft = curr.left, true
		} else {
			curr, goLeft = curr.right, false
		}
		if steps++; t.limit > 0 && steps > t.limit {
			c.ParseEnd()
			return false
		}
	}
	c.ParseEnd()
	n := &siNode{key: k, val: v}
	if goLeft {
		pred.left = n
	} else {
		pred.right = n
	}
	c.Inc(perf.EvStore)
	return true
}

// RemoveCtx implements core.Instrumented. Standard internal deletion: a node
// with two children is replaced by its in-order successor's key/value.
func (t *SeqInt) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	c.ParseBegin()
	pred, curr := t.root, t.root.left
	goLeft := true
	steps := 0
	for curr != nil && curr.key != k {
		c.Inc(perf.EvTraverse)
		pred = curr
		if k < curr.key {
			curr, goLeft = curr.left, true
		} else {
			curr, goLeft = curr.right, false
		}
		if steps++; t.limit > 0 && steps > t.limit {
			curr = nil
		}
	}
	c.ParseEnd()
	if curr == nil {
		return 0, false
	}
	v := curr.val
	// Children are read once into locals: when this tree is raced (the
	// async-int upper bound), re-reading a field can observe another
	// thread's nil and crash rather than merely misbehave.
	cl, cr := curr.left, curr.right
	if cl != nil && cr != nil {
		// Two children: splice the in-order successor.
		sPred, succ := curr, cr
		for {
			sl := succ.left
			if sl == nil {
				break
			}
			c.Inc(perf.EvTraverse)
			sPred, succ = succ, sl
			if steps++; t.limit > 0 && steps > t.limit {
				return 0, false // malformed under races; bail out
			}
		}
		curr.key, curr.val = succ.key, succ.val
		c.Inc(perf.EvStore)
		if sPred == curr {
			sPred.right = succ.right
		} else {
			sPred.left = succ.right
		}
		c.Inc(perf.EvStore)
		return v, true
	}
	child := cl
	if child == nil {
		child = cr
	}
	if goLeft {
		pred.left = child
	} else {
		pred.right = child
	}
	c.Inc(perf.EvStore)
	return v, true
}

// Search looks up k.
func (t *SeqInt) Search(k core.Key) (core.Value, bool) { return t.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (t *SeqInt) Insert(k core.Key, v core.Value) bool { return t.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (t *SeqInt) Remove(k core.Key) (core.Value, bool) { return t.RemoveCtx(nil, k) }

// ---------------------------------------------------------------------------
// Sequential external BST (async-ext).

type seNode struct {
	key         core.Key
	val         core.Value
	left, right *seNode // nil for leaves
}

func (n *seNode) leaf() bool { return n.left == nil }

// SeqExt is a textbook external BST (elements in leaves, routers internal);
// the async-ext upper bound when shared unsynchronized.
type SeqExt struct {
	core.OrderedVia
	root  *seNode // sentinel router; tree hangs off root.left
	limit int
}

// NewSeqExt returns an empty sequential external BST.
func NewSeqExt(cfg core.Config) *SeqExt {
	root := &seNode{key: sentinelKey}
	root.left = &seNode{key: sentinelKey} // sentinel leaf
	root.right = &seNode{key: sentinelKey}
	s := &SeqExt{root: root, limit: cfg.AsyncStepLimit}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// parse returns (grandparent, parent, leaf) for k.
func (t *SeqExt) parse(c *perf.Ctx, k core.Key) (gp, p, l *seNode) {
	gp, p, l = nil, t.root, t.root.left
	steps := 0
	for !l.leaf() {
		c.Inc(perf.EvTraverse)
		gp, p = p, l
		if k < l.key {
			l = l.left
		} else {
			l = l.right
		}
		if steps++; t.limit > 0 && steps > t.limit {
			return gp, p, &seNode{key: sentinelKey}
		}
	}
	return gp, p, l
}

// SearchCtx implements core.Instrumented.
func (t *SeqExt) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	_, _, l := t.parse(c, k)
	if l.key == k {
		return l.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (t *SeqExt) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	c.ParseBegin()
	_, p, l := t.parse(c, k)
	c.ParseEnd()
	if l.key == k {
		return false
	}
	nl := &seNode{key: k, val: v}
	router := &seNode{}
	if k < l.key {
		router.key, router.left, router.right = l.key, nl, l
	} else {
		router.key, router.left, router.right = k, l, nl
	}
	if l == p.left {
		p.left = router
	} else {
		p.right = router
	}
	c.Inc(perf.EvStore)
	return true
}

// RemoveCtx implements core.Instrumented.
func (t *SeqExt) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	c.ParseBegin()
	gp, p, l := t.parse(c, k)
	c.ParseEnd()
	if l.key != k {
		return 0, false
	}
	sibling := p.left
	if l == p.left {
		sibling = p.right
	}
	if gp == nil {
		t.root.left = sibling
	} else if p == gp.left {
		gp.left = sibling
	} else {
		gp.right = sibling
	}
	c.Inc(perf.EvStore)
	return l.val, true
}

// Search looks up k.
func (t *SeqExt) Search(k core.Key) (core.Value, bool) { return t.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (t *SeqExt) Insert(k core.Key, v core.Value) bool { return t.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (t *SeqExt) Remove(k core.Key) (core.Value, bool) { return t.RemoveCtx(nil, k) }
