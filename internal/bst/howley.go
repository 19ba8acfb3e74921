package bst

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/perf"
)

// Howley & Jones (SPAA'12): a non-blocking *internal* BST. Every node
// carries an operation word; any thread that encounters a pending operation
// helps it before proceeding — including searches, which is precisely the
// ASCY1/2 violation the paper charges howley for ("howley employs helping
// even while searching or parsing the tree", §5/Figure 7). Deleting a node
// with two children relocates the successor's key/value into it via a
// RELOCATE state machine.

// Operation-word states.
const (
	hwNone int32 = iota
	hwMark
	hwChildCAS
	hwRelocate
)

// Relocation states.
const (
	relocOngoing int32 = iota
	relocSuccessful
	relocFailed
)

// hwOp is an immutable operation record; the containing node's op word
// points at one, and all hand-offs are CASes on that word (object identity
// plays the role of the C version's pointer tagging).
type hwOp struct {
	state int32
	child *hwChildCASOp
	reloc *hwRelocateOp
}

// hwNoneOp is the initial "no operation" word of a fresh node. It must only
// ever be *installed* at node creation: the C original distinguishes op-word
// generations with tagged pointers, and the Go equivalent is releasing an op
// word with a *fresh* none op (newHWNoneOp) each time. Re-installing this
// singleton would let a node's op word return to a previously-observed
// pointer (None -> ChildCAS -> None), and a racer that read its child
// pointers against the first None could then CAS its own op in against a
// stale snapshot and lose an insert (ABA).
var hwNoneOp = &hwOp{state: hwNone}

func newHWNoneOp() *hwOp { return &hwOp{state: hwNone} }

type hwChildCASOp struct {
	isLeft           bool
	expected, update *hwNode
}

type hwRelocateOp struct {
	state           atomic.Int32 // relocOngoing/Successful/Failed
	dest            *hwNode
	destOp          *hwOp
	released        *hwOp // dest's op word once the copy is done
	remove, replace *hwPair
}

// hwPair is a node's immutable key/value pair. A relocation swaps the whole
// pair with one CAS from the removed pair, which no node ever holds again:
// readers never see a torn pair, and a late helper cannot overwrite a later
// relocation into the same node however the keys and values repeat.
type hwPair struct {
	key core.Key
	val core.Value
}

type hwNode struct {
	kv    atomic.Pointer[hwPair] // mutable: relocation replaces it
	left  atomic.Pointer[hwNode]
	right atomic.Pointer[hwNode]
	op    atomic.Pointer[hwOp]
	null  bool // an empty child slot left by a splice; see absent
}

// absent reports whether a child pointer denotes no node. A splice that
// empties a slot installs a fresh null node rather than nil, the Go
// rendering of the C original's SETNULL(curr): a child slot never returns
// to a value it held before, so a late helper replaying an old ChildCAS
// (expected nil -> update n) cannot resurrect a node spliced out since.
func (n *hwNode) absent() bool { return n == nil || n.null }

func newHWNode(k core.Key, v core.Value) *hwNode {
	n := &hwNode{}
	n.kv.Store(&hwPair{key: k, val: v})
	n.op.Store(hwNoneOp)
	return n
}

// Howley is the howley tree of Table 1.
type Howley struct {
	core.OrderedVia
	root *hwNode // sentinel, key 0 (< every user key); tree in root.right
}

// NewHowley returns an empty tree.
func NewHowley(cfg core.Config) *Howley {
	s := &Howley{root: newHWNode(0, 0)}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// find results.
const (
	hwFound int32 = iota
	hwNotFoundL
	hwNotFoundR
	hwAbort
)

// find locates k starting at root (the subtree root for successor searches),
// helping any pending operation it meets and restarting after. It returns
// the last node visited (curr) and its parent, with the op words observed
// while they were quiescent.
func (t *Howley) find(c *perf.Ctx, k core.Key, root *hwNode) (pred *hwNode, predOp *hwOp, curr *hwNode, currOp *hwOp, result int32) {
retry:
	for {
		result = hwNotFoundR
		pred, predOp = nil, nil
		curr = root
		currOp = curr.op.Load()
		if currOp.state != hwNone {
			if root == t.root {
				c.Inc(perf.EvHelp)
				t.helpChildCAS(c, currOp, curr)
				continue retry
			}
			return nil, nil, nil, nil, hwAbort
		}
		var lastRight *hwNode = curr
		var lastRightOp *hwOp = currOp
		next := curr.right.Load()
		for !next.absent() {
			pred, predOp = curr, currOp
			curr = next
			currOp = curr.op.Load()
			if currOp.state != hwNone {
				c.Inc(perf.EvHelp)
				t.help(c, pred, predOp, curr, currOp)
				continue retry
			}
			c.Inc(perf.EvTraverse)
			ckey := curr.kv.Load().key
			switch {
			case k < ckey:
				result = hwNotFoundL
				next = curr.left.Load()
			case k > ckey:
				result = hwNotFoundR
				next = curr.right.Load()
				lastRight, lastRightOp = curr, currOp
			default:
				if currOp != curr.op.Load() {
					// A relocation into curr may have changed its
					// key since we read the op word.
					c.Inc(perf.EvRestart)
					continue retry
				}
				return pred, predOp, curr, currOp, hwFound
			}
		}
		if lastRightOp != lastRight.op.Load() || currOp != curr.op.Load() {
			// A deletion may have moved things behind our back.
			c.Inc(perf.EvRestart)
			continue retry
		}
		return pred, predOp, curr, currOp, result
	}
}

func (t *Howley) help(c *perf.Ctx, pred *hwNode, predOp *hwOp, curr *hwNode, currOp *hwOp) {
	switch currOp.state {
	case hwChildCAS:
		t.helpChildCAS(c, currOp, curr)
	case hwRelocate:
		t.helpRelocate(c, currOp.reloc, pred, predOp, curr)
	case hwMark:
		t.helpMarked(c, pred, predOp, curr)
	}
}

// helpChildCAS completes a pending child swap and releases the op word.
func (t *Howley) helpChildCAS(c *perf.Ctx, op *hwOp, dest *hwNode) {
	if op.state != hwChildCAS {
		return
	}
	addr := &dest.right
	if op.child.isLeft {
		addr = &dest.left
	}
	if addr.CompareAndSwap(op.child.expected, op.child.update) {
		c.Inc(perf.EvCAS)
	}
	if dest.op.CompareAndSwap(op, newHWNoneOp()) {
		c.Inc(perf.EvCAS)
	}
}

// helpMarked splices a marked (≤1 child) node out from under pred via a
// ChildCAS on pred.
func (t *Howley) helpMarked(c *perf.Ctx, pred *hwNode, predOp *hwOp, curr *hwNode) {
	newRef := curr.left.Load()
	if newRef.absent() {
		newRef = curr.right.Load()
		if newRef.absent() {
			newRef = &hwNode{null: true}
		}
	}
	isLeft := curr == pred.left.Load()
	casOp := &hwOp{state: hwChildCAS, child: &hwChildCASOp{isLeft: isLeft, expected: curr, update: newRef}}
	if pred.op.CompareAndSwap(predOp, casOp) {
		c.Inc(perf.EvCAS)
		t.helpChildCAS(c, casOp, pred)
	} else {
		c.Inc(perf.EvCASFail)
	}
}

// helpRelocate drives the two-node relocation state machine: claim the
// destination, copy the successor's pair into it, then mark and excise the
// successor.
func (t *Howley) helpRelocate(c *perf.Ctx, op *hwRelocateOp, pred *hwNode, predOp *hwOp, curr *hwNode) bool {
	seen := op.state.Load()
	if seen == relocOngoing {
		claimOp := &hwOp{state: hwRelocate, reloc: op}
		claimed := op.dest.op.CompareAndSwap(op.destOp, claimOp)
		if claimed {
			c.Inc(perf.EvCAS)
		} else {
			c.Inc(perf.EvCASFail)
		}
		w := op.dest.op.Load()
		if claimed || (w.state == hwRelocate && w.reloc == op) {
			op.state.CompareAndSwap(relocOngoing, relocSuccessful)
			seen = relocSuccessful
		} else {
			op.state.CompareAndSwap(relocOngoing, relocFailed)
			seen = op.state.Load()
		}
	}
	if seen == relocSuccessful {
		// Copy the pair into dest and release dest's op word.
		op.dest.kv.CompareAndSwap(op.remove, op.replace)
		c.Inc(perf.EvStore)
		if w := op.dest.op.Load(); w.state == hwRelocate && w.reloc == op {
			if op.dest.op.CompareAndSwap(w, op.released) {
				c.Inc(perf.EvCAS)
			}
		}
	}
	// Resolve the successor node (curr): marked for excision on success,
	// restored on failure.
	if w := curr.op.Load(); w.state == hwRelocate && w.reloc == op {
		target := newHWNoneOp()
		if seen == relocSuccessful {
			target = &hwOp{state: hwMark}
		}
		if curr.op.CompareAndSwap(w, target) {
			c.Inc(perf.EvCAS)
			if seen == relocSuccessful {
				// When pred is dest, the claim above replaced
				// pred's op word and the copy released it to
				// op.released: splice against that. Splicing
				// against pred's current op instead could
				// overwrite a MARK or another operation's record.
				if pred == op.dest {
					predOp = op.released
				}
				t.helpMarked(c, pred, predOp, curr)
			}
		}
	}
	return seen == relocSuccessful
}

// SearchCtx implements core.Instrumented. Note: find helps pending
// operations and restarts — howley's searches are not ASCY1, by design.
func (t *Howley) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		_, _, curr, _, res := t.find(c, k, t.root)
		if res != hwFound {
			return 0, false
		}
		if kv := curr.kv.Load(); kv.key == k {
			return kv.val, true
		}
		// A relocation replaced curr's pair after find: k was removed
		// meanwhile. Search again.
		c.Inc(perf.EvRestart)
	}
}

// InsertCtx implements core.Instrumented.
func (t *Howley) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	for {
		c.ParseBegin()
		_, _, curr, currOp, res := t.find(c, k, t.root)
		c.ParseEnd()
		if res == hwFound {
			return false
		}
		n := newHWNode(k, v)
		isLeft := res == hwNotFoundL
		var old *hwNode
		if isLeft {
			old = curr.left.Load()
		} else {
			old = curr.right.Load()
		}
		casOp := &hwOp{state: hwChildCAS, child: &hwChildCASOp{isLeft: isLeft, expected: old, update: n}}
		if curr.op.CompareAndSwap(currOp, casOp) {
			c.Inc(perf.EvCAS)
			t.helpChildCAS(c, casOp, curr)
			return true
		}
		c.Inc(perf.EvCASFail)
		c.Inc(perf.EvRestart)
	}
}

// RemoveCtx implements core.Instrumented.
func (t *Howley) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	for {
		c.ParseBegin()
		pred, predOp, curr, currOp, res := t.find(c, k, t.root)
		c.ParseEnd()
		if res != hwFound {
			return 0, false
		}
		kv := curr.kv.Load()
		if kv.key != k {
			// Relocated over since find; see SearchCtx.
			c.Inc(perf.EvRestart)
			continue
		}
		if curr.right.Load().absent() || curr.left.Load().absent() {
			// At most one child: mark, then splice out.
			if curr.op.CompareAndSwap(currOp, &hwOp{state: hwMark}) {
				c.Inc(perf.EvCAS)
				t.helpMarked(c, pred, predOp, curr)
				return kv.val, true
			}
			c.Inc(perf.EvCASFail)
			c.Inc(perf.EvRestart)
			continue
		}
		// Two children: relocate the in-order successor's pair here.
		pred2, predOp2, succ, succOp, res2 := t.find(c, k, curr)
		if res2 == hwAbort {
			c.Inc(perf.EvRestart)
			continue
		}
		if res2 == hwFound {
			// Another relocation already moved k into the subtree;
			// retry from the top.
			c.Inc(perf.EvRestart)
			continue
		}
		if succ == curr {
			// The successor walk restarted after helping and found
			// curr's right subtree gone: curr no longer has two
			// children, so the relocation no longer applies (a
			// self-relocation would "succeed" without removing
			// anything). Re-evaluate from the top.
			c.Inc(perf.EvRestart)
			continue
		}
		reloc := &hwRelocateOp{
			dest:     curr,
			destOp:   currOp,
			released: newHWNoneOp(),
			remove:   kv,
			replace:  succ.kv.Load(),
		}
		if succ.op.CompareAndSwap(succOp, &hwOp{state: hwRelocate, reloc: reloc}) {
			c.Inc(perf.EvCAS)
			if t.helpRelocate(c, reloc, pred2, predOp2, succ) {
				return kv.val, true
			}
		} else {
			c.Inc(perf.EvCASFail)
		}
		c.Inc(perf.EvRestart)
	}
}

// Search looks up k.
func (t *Howley) Search(k core.Key) (core.Value, bool) { return t.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (t *Howley) Insert(k core.Key, v core.Value) bool { return t.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (t *Howley) Remove(k core.Key) (core.Value, bool) { return t.RemoveCtx(nil, k) }
