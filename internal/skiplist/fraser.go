package skiplist

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/ssmem"
)

// fRef is an immutable (successor, marked) record for one level of a tower;
// marked on node.next[lvl] means the node is logically deleted at lvl.
type fRef struct {
	n      *fNode
	marked bool
}

type fNode struct {
	key  core.Key
	val  core.Value
	next []atomic.Pointer[fRef]
}

func newFNode(k core.Key, v core.Value, h int) *fNode {
	return &fNode{key: k, val: v, next: make([]atomic.Pointer[fRef], h)}
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
// deferred to the update CASes, which naturally swallow marked spans.
// With cfg.Recycle, height-1 nodes are recycled through SSMEM epochs by the
// thread whose level-0 CAS detaches them (see recycle.go for why recycling
// is height-1-only).
type Fraser struct {
	core.OrderedVia
	head, tail *fNode
	maxLevel   int
	optimized  bool
	rec        *ssmem.Pool[fNode]
}

// NewFraser returns an empty Fraser skip list; optimized selects fraser-opt.
func NewFraser(cfg core.Config, optimized bool) *Fraser {
	ml := clampLevel(cfg)
	tail := newFNode(tailKey, 0, ml)
	head := newFNode(headKey, 0, ml)
	for i := 0; i < ml; i++ {
		tail.next[i].Store(&fRef{})
		head.next[i].Store(&fRef{n: tail})
	}
	s := &Fraser{head: head, tail: tail, maxLevel: ml, optimized: optimized, rec: newNodePool[fNode](cfg)}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// RecycleStats implements core.Recycler.
func (l *Fraser) RecycleStats() ssmem.Stats { return ssmem.PoolStats(l.rec) }

// search is Fraser's original search: positions preds/succs at every level,
// unlinking marked nodes on the way; restarts from the top on any conflict.
// refs[lvl] receives the exact record in preds[lvl].next[lvl] that points at
// succs[lvl], as needed by the callers' CASes.
func (l *Fraser) search(a *ssmem.Allocator[fNode], c *perf.Ctx, k core.Key, preds, succs []*fNode, refs []*fRef) {
retry:
	for {
		pred := l.head
		for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
			predRef := pred.next[lvl].Load()
			if predRef.marked {
				// pred got deleted while we were descending:
				// the "marked element met when switching
				// levels" restart.
				c.Inc(perf.EvRestart)
				continue retry
			}
			curr := predRef.n
			for {
				cRef := curr.next[lvl].Load()
				for cRef.marked {
					// Unlink the deleted node; restart on failure.
					nr := &fRef{n: cRef.n}
					if !pred.next[lvl].CompareAndSwap(predRef, nr) {
						c.Inc(perf.EvCASFail)
						c.Inc(perf.EvRestart)
						continue retry
					}
					c.Inc(perf.EvCAS)
					c.Inc(perf.EvCleanup)
					if lvl == 0 {
						// Our CAS detached curr at its only level.
						freeF1(a, curr)
					}
					predRef = nr
					curr = cRef.n
					cRef = curr.next[lvl].Load()
				}
				if curr.key < k {
					c.Inc(perf.EvTraverse)
					pred = curr
					predRef = cRef
					curr = cRef.n
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
// store, never restart. refs[lvl] is pred's record at walk time; an update
// CAS against it atomically swallows any marked span between pred and succ.
func (l *Fraser) parseOpt(c *perf.Ctx, k core.Key, preds, succs []*fNode, refs []*fRef) {
	pred := l.head
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		predRef := pred.next[lvl].Load()
		curr := predRef.n
		for curr != l.tail {
			cRef := curr.next[lvl].Load()
			if cRef.marked {
				c.Inc(perf.EvTraverse)
				curr = cRef.n // skip deleted; no helping
				continue
			}
			if curr.key < k {
				c.Inc(perf.EvTraverse)
				pred = curr
				predRef = cRef
				curr = cRef.n
				continue
			}
			break
		}
		preds[lvl] = pred
		succs[lvl] = curr
		refs[lvl] = predRef
	}
}

func (l *Fraser) parse(a *ssmem.Allocator[fNode], c *perf.Ctx, k core.Key, preds, succs []*fNode, refs []*fRef) {
	if l.optimized {
		l.parseOpt(c, k, preds, succs, refs)
	} else {
		l.search(a, c, k, preds, succs, refs)
	}
}

// SearchCtx implements core.Instrumented.
func (l *Fraser) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	a := ssmem.Pin(l.rec)
	defer ssmem.Unpin(l.rec, a)
	if l.optimized {
		// ASCY1: pure traversal.
		pred := l.head
		var cand *fNode
		for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
			curr := pred.next[lvl].Load().n
			for curr != l.tail {
				cRef := curr.next[lvl].Load()
				if cRef.marked {
					c.Inc(perf.EvTraverse)
					curr = cRef.n
					continue
				}
				if curr.key < k {
					c.Inc(perf.EvTraverse)
					pred = curr
					curr = cRef.n
					continue
				}
				break
			}
			if curr != l.tail && curr.key == k {
				cand = curr
			}
		}
		if cand != nil && !cand.next[0].Load().marked {
			return cand.val, true
		}
		return 0, false
	}
	var preds, succs [maxHeight]*fNode
	var refs [maxHeight]*fRef
	l.search(a, c, k, preds[:l.maxLevel], succs[:l.maxLevel], refs[:l.maxLevel])
	if s := succs[0]; s != l.tail && s.key == k {
		return s.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Fraser) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	a := ssmem.Pin(l.rec)
	defer ssmem.Unpin(l.rec, a)
	var preds, succs [maxHeight]*fNode
	var refs [maxHeight]*fRef
	h := randomLevel(l.maxLevel)
	var node *fNode // allocated once, reused across CAS retries
	for {
		c.ParseBegin()
		l.parse(a, c, k, preds[:l.maxLevel], succs[:l.maxLevel], refs[:l.maxLevel])
		c.ParseEnd()
		if s := succs[0]; s != l.tail && s.key == k {
			freeF1(a, node) // allocated on an earlier retry, never published
			return false
		}
		// The optimistic parse may hand back a ref read from a
		// predecessor that was fully removed while we descended; its
		// record is marked. CASing it would link the new node under a
		// dead node (and resurrect the dead node's next pointer), so
		// such parses must be redone — this residual restart is why
		// fraser-opt's parse-restart rate is small but not zero in the
		// paper (§5: 0.09% vs fraser's 1.07% at 20 threads).
		if refs[0].marked {
			c.Inc(perf.EvParseRestart)
			continue
		}
		if node == nil {
			node = allocF(a, k, v, h)
		}
		for lvl := 0; lvl < h; lvl++ {
			node.next[lvl].Store(&fRef{n: succs[lvl]})
		}
		// Level 0 linearizes the insert.
		if !preds[0].next[0].CompareAndSwap(refs[0], &fRef{n: node}) {
			c.Inc(perf.EvCASFail)
			c.Inc(perf.EvParseRestart)
			continue
		}
		c.Inc(perf.EvCAS)
		// The CAS also swallowed the marked level-0 span the optimized
		// parse stepped over; free its height-1 members.
		freeF0Span(a, refs[0].n, succs[0])
		// Link the upper levels; conflicts refresh via a (cleaning)
		// search, as in Fraser's original.
		for lvl := 1; lvl < h; lvl++ {
			for {
				own := node.next[lvl].Load()
				if own.marked {
					return true // node already being deleted
				}
				// A marked ref means the recorded predecessor
				// died at this level; fall through to the
				// cleaning search for fresh positions.
				if !refs[lvl].marked && preds[lvl].next[lvl].CompareAndSwap(refs[lvl], &fRef{n: node}) {
					c.Inc(perf.EvCAS)
					break
				}
				c.Inc(perf.EvCASFail)
				l.search(a, c, k, preds[:l.maxLevel], succs[:l.maxLevel], refs[:l.maxLevel])
				if succs[0] != node {
					return true // unlinked already; stop building
				}
				if succs[lvl] != own.n {
					// Retarget our own pointer before retrying.
					if !node.next[lvl].CompareAndSwap(own, &fRef{n: succs[lvl]}) {
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
	a := ssmem.Pin(l.rec)
	defer ssmem.Unpin(l.rec, a)
	var preds, succs [maxHeight]*fNode
	var refs [maxHeight]*fRef
	c.ParseBegin()
	l.parse(a, c, k, preds[:l.maxLevel], succs[:l.maxLevel], refs[:l.maxLevel])
	c.ParseEnd()
	node := succs[0]
	if node == l.tail || node.key != k {
		return 0, false
	}
	// Mark top-down; level 0 decides the winner.
	for lvl := len(node.next) - 1; lvl >= 1; lvl-- {
		for {
			r := node.next[lvl].Load()
			if r.marked {
				break
			}
			if node.next[lvl].CompareAndSwap(r, &fRef{n: r.n, marked: true}) {
				c.Inc(perf.EvCAS)
				break
			}
			c.Inc(perf.EvCASFail)
		}
	}
	for {
		r := node.next[0].Load()
		if r.marked {
			return 0, false // another remover linearized first
		}
		if node.next[0].CompareAndSwap(r, &fRef{n: r.n, marked: true}) {
			c.Inc(perf.EvCAS)
			break
		}
		c.Inc(perf.EvCASFail)
	}
	val := node.val // we won the level-0 mark; read before any free
	if l.optimized {
		// Single best-effort unlink; otherwise future update CASes
		// swallow the marked span. Never CAS a marked ref: that would
		// resurrect a dead predecessor's next pointer.
		target := node.next[0].Load().n // frozen by the mark
		if !refs[0].marked && preds[0].next[0].CompareAndSwap(refs[0], &fRef{n: target}) {
			c.Inc(perf.EvCAS)
			c.Inc(perf.EvCleanup)
			// Detached [refs[0].n .. target): node plus any marked
			// span the parse stepped over.
			freeF0Span(a, refs[0].n, target)
		}
	} else {
		// Fraser: eager cleanup via a fresh search (which frees what
		// its CASes detach).
		l.search(a, c, k, preds[:l.maxLevel], succs[:l.maxLevel], refs[:l.maxLevel])
	}
	return val, true
}

// Search looks up k.
func (l *Fraser) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Fraser) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Fraser) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }

// Size counts unmarked elements at level 0. Quiescent use only.
func (l *Fraser) Size() int {
	a := ssmem.Pin(l.rec)
	defer ssmem.Unpin(l.rec, a)
	n := 0
	for curr := l.head.next[0].Load().n; curr != l.tail; {
		ref := curr.next[0].Load()
		if !ref.marked {
			n++
		}
		curr = ref.n
	}
	return n
}
