package bst

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/perf"
)

// Ellen, Fatourou, Ruppert & van Breugel (PODC'10): the classic non-blocking
// *external* BST. Every internal node carries an update word = (state, Info
// record); updates flag the nodes they are about to modify (IFLAG for
// inserts at the parent, DFLAG at the grandparent and MARK at the parent for
// deletes) and any thread that runs into a flag helps the owning operation
// finish before retrying — "updates help outstanding operations on the nodes
// that they intend to modify" (Table 1). Searches are plain traversals.
//
// The C original packs state into the info pointer's low bits; here the
// update word is an atomic pointer to an immutable eUpd record, and all
// hand-offs are CASes on record identity.

// Update-word states.
const (
	eClean int32 = iota
	eIFlag
	eDFlag
	eMark
)

type eUpd struct {
	state int32
	info  any // *eIInfo or *eDInfo
}

type eIInfo struct {
	p           *eNode // parent being IFLAGged
	newInternal *eNode
	l           *eNode // leaf being replaced
	flagUpd     *eUpd  // the IFLAG record installed on p
}

type eDInfo struct {
	gp, p   *eNode // grandparent (DFLAGged), parent (to MARK)
	l       *eNode // leaf being deleted
	pupdate *eUpd  // p's update word as observed by the deleter
	flagUpd *eUpd  // the DFLAG record installed on gp
}

type eNode struct {
	key      core.Key
	val      core.Value
	update   atomic.Pointer[eUpd]
	left     atomic.Pointer[eNode]
	right    atomic.Pointer[eNode]
	internal bool
}

func newELeaf(k core.Key, v core.Value) *eNode {
	return &eNode{key: k, val: v}
}

func newEInternal(k core.Key) *eNode {
	n := &eNode{key: k, internal: true}
	n.update.Store(&eUpd{state: eClean})
	return n
}

// Ellen is the ellen tree of Table 1, with the R/S sentinel structure shared
// with the natarajan tree.
type Ellen struct {
	core.OrderedVia
	root *eNode
}

// NewEllen returns an empty tree.
func NewEllen(cfg core.Config) *Ellen {
	r := newEInternal(sentinelKey)
	s := newEInternal(sentinelKey)
	s.left.Store(newELeaf(sentinelKey, 0))
	s.right.Store(newELeaf(sentinelKey, 0))
	r.left.Store(s)
	r.right.Store(newELeaf(sentinelKey, 0))
	t := &Ellen{root: r}
	t.OrderedVia = core.OrderedVia{Ascend: t.ascend}
	return t
}

// search descends to the leaf for k, recording grandparent/parent and the
// update words read *before* following each edge (the algorithm's ordering
// requirement: an update installed after the read will fail its CAS).
func (t *Ellen) search(c *perf.Ctx, k core.Key) (gp, p, l *eNode, gpupdate, pupdate *eUpd) {
	p = t.root
	pupdate = p.update.Load()
	l = p.left.Load()
	for l.internal {
		c.Inc(perf.EvTraverse)
		gp, p = p, l
		gpupdate = pupdate
		pupdate = p.update.Load()
		if k < p.key {
			l = p.left.Load()
		} else {
			l = p.right.Load()
		}
	}
	return gp, p, l, gpupdate, pupdate
}

// SearchCtx implements core.Instrumented: no helping on the read path.
func (t *Ellen) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	curr := t.root.left.Load()
	for curr.internal {
		c.Inc(perf.EvTraverse)
		if k < curr.key {
			curr = curr.left.Load()
		} else {
			curr = curr.right.Load()
		}
	}
	if curr.key == k {
		return curr.val, true
	}
	return 0, false
}

// casChild swaps old for new under parent, on whichever side currently holds
// old.
func casChild(c *perf.Ctx, parent, old, new *eNode) {
	if parent.left.Load() == old {
		if parent.left.CompareAndSwap(old, new) {
			c.Inc(perf.EvCAS)
			return
		}
		c.Inc(perf.EvCASFail)
	}
	if parent.right.Load() == old {
		if parent.right.CompareAndSwap(old, new) {
			c.Inc(perf.EvCAS)
		} else {
			c.Inc(perf.EvCASFail)
		}
	}
}

func (t *Ellen) help(c *perf.Ctx, u *eUpd) {
	c.Inc(perf.EvHelp)
	switch u.state {
	case eIFlag:
		t.helpInsert(c, u.info.(*eIInfo))
	case eDFlag:
		t.helpDelete(c, u.info.(*eDInfo))
	case eMark:
		t.helpMarked(c, u.info.(*eDInfo))
	}
}

func (t *Ellen) helpInsert(c *perf.Ctx, op *eIInfo) {
	casChild(c, op.p, op.l, op.newInternal)                           // ichild
	if op.p.update.CompareAndSwap(op.flagUpd, &eUpd{state: eClean}) { // iunflag
		c.Inc(perf.EvCAS)
	}
}

// helpDelete tries to MARK the parent; on success the deletion commits, on
// failure (someone else got to p first) the grandparent is unflagged and the
// deletion reports failure so its owner re-seeks.
func (t *Ellen) helpDelete(c *perf.Ctx, op *eDInfo) bool {
	markUpd := &eUpd{state: eMark, info: op}
	ok := op.p.update.CompareAndSwap(op.pupdate, markUpd)
	if ok {
		c.Inc(perf.EvCAS)
	} else {
		c.Inc(perf.EvCASFail)
	}
	u := op.p.update.Load()
	if ok || (u.state == eMark && u.info == op) {
		t.helpMarked(c, op)
		return true
	}
	t.help(c, u)                                                       // whatever beat us to p
	if op.gp.update.CompareAndSwap(op.flagUpd, &eUpd{state: eClean}) { // backtrack
		c.Inc(perf.EvCAS)
	}
	return false
}

// helpMarked splices p (and the deleted leaf) out from under gp and cleans
// the DFLAG. A surviving sibling leaf moves up as a copy: a leaf object then
// never returns to a slot it left, so a late helper replaying a finished
// insert's child CAS (expected l -> update newInternal) cannot re-install
// that insert's already-deleted subtree over a later insert's leaf.
func (t *Ellen) helpMarked(c *perf.Ctx, op *eDInfo) {
	other := op.p.right.Load()
	if other == op.l {
		other = op.p.left.Load()
	}
	if !other.internal {
		other = newELeaf(other.key, other.val)
	}
	casChild(c, op.gp, op.p, other)                                    // dchild
	if op.gp.update.CompareAndSwap(op.flagUpd, &eUpd{state: eClean}) { // dunflag
		c.Inc(perf.EvCAS)
	}
}

// InsertCtx implements core.Instrumented.
func (t *Ellen) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	for {
		c.ParseBegin()
		_, p, l, _, pupdate := t.search(c, k)
		c.ParseEnd()
		if l.key == k {
			return false // ASCY3 for free
		}
		if pupdate.state != eClean {
			t.help(c, pupdate)
			c.Inc(perf.EvRestart)
			continue
		}
		nl := newELeaf(k, v)
		var ni *eNode
		if k < l.key {
			ni = newEInternal(l.key)
			ni.left.Store(nl)
			ni.right.Store(l)
		} else {
			ni = newEInternal(k)
			ni.left.Store(l)
			ni.right.Store(nl)
		}
		op := &eIInfo{p: p, newInternal: ni, l: l}
		op.flagUpd = &eUpd{state: eIFlag, info: op}
		if p.update.CompareAndSwap(pupdate, op.flagUpd) { // iflag
			c.Inc(perf.EvCAS)
			t.helpInsert(c, op)
			return true
		}
		c.Inc(perf.EvCASFail)
		t.help(c, p.update.Load())
		c.Inc(perf.EvRestart)
	}
}

// RemoveCtx implements core.Instrumented.
func (t *Ellen) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		c.ParseBegin()
		gp, p, l, gpupdate, pupdate := t.search(c, k)
		c.ParseEnd()
		if l.key != k {
			return 0, false // ASCY3
		}
		if gpupdate.state != eClean {
			t.help(c, gpupdate)
			c.Inc(perf.EvRestart)
			continue
		}
		if pupdate.state != eClean {
			t.help(c, pupdate)
			c.Inc(perf.EvRestart)
			continue
		}
		op := &eDInfo{gp: gp, p: p, l: l, pupdate: pupdate}
		op.flagUpd = &eUpd{state: eDFlag, info: op}
		if gp.update.CompareAndSwap(gpupdate, op.flagUpd) { // dflag
			c.Inc(perf.EvCAS)
			if t.helpDelete(c, op) {
				return l.val, true
			}
		} else {
			c.Inc(perf.EvCASFail)
			t.help(c, gp.update.Load())
		}
		c.Inc(perf.EvRestart)
	}
}

// Search looks up k.
func (t *Ellen) Search(k core.Key) (core.Value, bool) { return t.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (t *Ellen) Insert(k core.Key, v core.Value) bool { return t.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (t *Ellen) Remove(k core.Key) (core.Value, bool) { return t.RemoveCtx(nil, k) }
