package skiplist

import (
	"repro/internal/core"
	"repro/internal/mark"
	"repro/internal/perf"
)

// fNode is a Fraser tower. next[lvl] holds (successor, marked) for one level
// as a single tagged word; a marked next[lvl] means the node is logically
// deleted at lvl.
type fNode struct {
	key  core.Key
	val  core.Value
	next []mark.Link[fNode]
}

func newFNode(k core.Key, v core.Value, h int) *fNode {
	return &fNode{key: k, val: v, next: make([]mark.Link[fNode], h)}
}

// Fraser is Fraser's lock-free skip list (Table 1): updates CAS one level at
// a time; deletion marks every level top-down and linearizes at the level-0
// mark. In the original, searches and parses unlink the marked nodes they
// meet and restart when a cleanup CAS fails or a marked node is met when
// switching levels — the ASCY1/2 violations Figure 5 quantifies.
//
// With optimized == true this is fraser-opt (§5, based on the wait-free-
// contains idea of Herlihy/Lev/Shavit): searches and parses skip over marked
// nodes with plain reads, never CAS, and never restart; physical cleanup is
// deferred to the update CASes, which naturally swallow marked spans, and
// to one best-effort unlink per level by the remover.
type Fraser struct {
	core.OrderedVia
	head, tail *fNode
	maxLevel   int
	optimized  bool
}

// NewFraser returns an empty Fraser skip list; optimized selects fraser-opt.
func NewFraser(cfg core.Config, optimized bool) *Fraser {
	ml := clampLevel(cfg)
	tail := newFNode(tailKey, 0, ml)
	head := newFNode(headKey, 0, ml)
	for i := 0; i < ml; i++ {
		head.next[i].Store(mark.Ref[fNode]{N: tail})
	}
	s := &Fraser{head: head, tail: tail, maxLevel: ml, optimized: optimized}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// search is Fraser's original search: positions preds/succs at every level,
// unlinking marked nodes on the way; restarts from the top on any conflict.
// refs[lvl] receives the value of preds[lvl].next[lvl] that points at
// succs[lvl], as needed by the callers' CASes.
func (l *Fraser) search(c *perf.Ctx, k core.Key, preds, succs []*fNode, refs []mark.Ref[fNode]) {
retry:
	for {
		pred := l.head
		for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
			predRef := pred.next[lvl].Load()
			if predRef.Marked {
				// pred got deleted while we were descending:
				// the "marked element met when switching
				// levels" restart.
				c.Inc(perf.EvRestart)
				continue retry
			}
			curr := predRef.N
			for {
				cRef := curr.next[lvl].Load()
				for cRef.Marked {
					// Unlink the deleted node; restart on failure.
					nr := mark.Ref[fNode]{N: cRef.N}
					if !pred.next[lvl].CompareAndSwap(predRef, nr) {
						c.Inc(perf.EvCASFail)
						c.Inc(perf.EvRestart)
						continue retry
					}
					c.Inc(perf.EvCAS)
					c.Inc(perf.EvCleanup)
					predRef = nr
					curr = cRef.N
					cRef = curr.next[lvl].Load()
				}
				if curr.key < k {
					c.Inc(perf.EvTraverse)
					pred = curr
					predRef = cRef
					curr = cRef.N
					continue
				}
				break
			}
			preds[lvl] = pred
			succs[lvl] = curr
			refs[lvl] = predRef
		}
		return
	}
}

// parseOpt is the ASCY1/2 walk: skip marked nodes with plain loads, never
// store, never restart. refs[lvl] is pred's link at walk time; an update
// CAS against it atomically swallows any marked span between pred and succ.
func (l *Fraser) parseOpt(c *perf.Ctx, k core.Key, preds, succs []*fNode, refs []mark.Ref[fNode]) {
	pred := l.head
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		predRef := pred.next[lvl].Load()
		curr := predRef.N
		for curr != l.tail {
			cRef := curr.next[lvl].Load()
			if cRef.Marked {
				c.Inc(perf.EvTraverse)
				curr = cRef.N // skip deleted; no helping
				continue
			}
			if curr.key < k {
				c.Inc(perf.EvTraverse)
				pred = curr
				predRef = cRef
				curr = cRef.N
				continue
			}
			break
		}
		preds[lvl] = pred
		succs[lvl] = curr
		refs[lvl] = predRef
	}
}

func (l *Fraser) parse(c *perf.Ctx, k core.Key, preds, succs []*fNode, refs []mark.Ref[fNode]) {
	if l.optimized {
		l.parseOpt(c, k, preds, succs, refs)
	} else {
		l.search(c, k, preds, succs, refs)
	}
}

// SearchCtx implements core.Instrumented.
func (l *Fraser) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	if l.optimized {
		// ASCY1: pure traversal.
		pred := l.head
		var cand *fNode
		for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
			curr := pred.next[lvl].Load().N
			for curr != l.tail {
				cRef := curr.next[lvl].Load()
				if cRef.Marked {
					c.Inc(perf.EvTraverse)
					curr = cRef.N
					continue
				}
				if curr.key < k {
					c.Inc(perf.EvTraverse)
					pred = curr
					curr = cRef.N
					continue
				}
				break
			}
			if curr != l.tail && curr.key == k {
				cand = curr
			}
		}
		if cand != nil && !cand.next[0].Load().Marked {
			return cand.val, true
		}
		return 0, false
	}
	var preds, succs [maxHeight]*fNode
	var refs [maxHeight]mark.Ref[fNode]
	l.search(c, k, preds[:l.maxLevel], succs[:l.maxLevel], refs[:l.maxLevel])
	if s := succs[0]; s != l.tail && s.key == k {
		return s.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Fraser) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	var preds, succs [maxHeight]*fNode
	var refs [maxHeight]mark.Ref[fNode]
	h := randomLevel(l.maxLevel)
	var node *fNode // allocated once, reused across CAS retries
	for {
		c.ParseBegin()
		l.parse(c, k, preds[:l.maxLevel], succs[:l.maxLevel], refs[:l.maxLevel])
		c.ParseEnd()
		if s := succs[0]; s != l.tail && s.key == k {
			return false
		}
		// The optimistic parse may hand back a ref read from a
		// predecessor that was fully removed while we descended; its
		// link is marked. CASing it would link the new node under a
		// dead node (and resurrect the dead node's next pointer), so
		// such parses must be redone — this residual restart is why
		// fraser-opt's parse-restart rate is small but not zero in the
		// paper (§5: 0.09% vs fraser's 1.07% at 20 threads).
		if refs[0].Marked {
			c.Inc(perf.EvParseRestart)
			continue
		}
		if node == nil {
			node = newFNode(k, v, h)
		}
		for lvl := 0; lvl < h; lvl++ {
			node.next[lvl].Store(mark.Ref[fNode]{N: succs[lvl]})
		}
		// Level 0 linearizes the insert.
		if !preds[0].next[0].CompareAndSwap(refs[0], mark.Ref[fNode]{N: node}) {
			c.Inc(perf.EvCASFail)
			c.Inc(perf.EvParseRestart)
			continue
		}
		c.Inc(perf.EvCAS)
		// Link the upper levels; conflicts refresh via a (cleaning)
		// search, as in Fraser's original.
		for lvl := 1; lvl < h; lvl++ {
			for {
				own := node.next[lvl].Load()
				if own.Marked {
					return true // node already being deleted
				}
				// A marked ref means the recorded predecessor
				// died at this level; fall through to the
				// cleaning search for fresh positions.
				if !refs[lvl].Marked && preds[lvl].next[lvl].CompareAndSwap(refs[lvl], mark.Ref[fNode]{N: node}) {
					c.Inc(perf.EvCAS)
					break
				}
				c.Inc(perf.EvCASFail)
				l.search(c, k, preds[:l.maxLevel], succs[:l.maxLevel], refs[:l.maxLevel])
				if succs[0] != node {
					return true // unlinked already; stop building
				}
				if succs[lvl] != own.N {
					// Retarget our own pointer before retrying.
					if !node.next[lvl].CompareAndSwap(own, mark.Ref[fNode]{N: succs[lvl]}) {
						return true // marked under us
					}
				}
			}
		}
		return true
	}
}

// RemoveCtx implements core.Instrumented.
func (l *Fraser) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	var preds, succs [maxHeight]*fNode
	var refs [maxHeight]mark.Ref[fNode]
	c.ParseBegin()
	l.parse(c, k, preds[:l.maxLevel], succs[:l.maxLevel], refs[:l.maxLevel])
	c.ParseEnd()
	node := succs[0]
	if node == l.tail || node.key != k {
		return 0, false
	}
	// Mark top-down; level 0 decides the winner.
	for lvl := len(node.next) - 1; lvl >= 1; lvl-- {
		for {
			r := node.next[lvl].Load()
			if r.Marked {
				break
			}
			if node.next[lvl].CompareAndSwap(r, mark.Ref[fNode]{N: r.N, Marked: true}) {
				c.Inc(perf.EvCAS)
				break
			}
			c.Inc(perf.EvCASFail)
		}
	}
	for {
		r := node.next[0].Load()
		if r.Marked {
			return 0, false // another remover linearized first
		}
		if node.next[0].CompareAndSwap(r, mark.Ref[fNode]{N: r.N, Marked: true}) {
			c.Inc(perf.EvCAS)
			break
		}
		c.Inc(perf.EvCASFail)
	}
	val := node.val
	if l.optimized {
		// One best-effort unlink per level the parse found node at;
		// otherwise future update CASes swallow the marked span. A
		// tower left linked above level 0 would keep, through its
		// frozen links, whole chains of dead nodes reachable. Never
		// CAS a marked ref: that would resurrect a dead predecessor's
		// next pointer.
		for lvl := 0; lvl < len(node.next); lvl++ {
			if succs[lvl] != node || refs[lvl].Marked {
				continue
			}
			target := node.next[lvl].Load().N // frozen by the mark
			if preds[lvl].next[lvl].CompareAndSwap(refs[lvl], mark.Ref[fNode]{N: target}) {
				c.Inc(perf.EvCAS)
				c.Inc(perf.EvCleanup)
			}
		}
	} else {
		// Fraser: eager cleanup via a fresh search.
		l.search(c, k, preds[:l.maxLevel], succs[:l.maxLevel], refs[:l.maxLevel])
	}
	return val, true
}

// Search looks up k.
func (l *Fraser) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Fraser) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Fraser) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }
