// SSMEM node recycling for the skip lists (ASCY4 behind core.Config.Recycle).
//
// Skip-list towers complicate the "who may free" question: a node of height
// h is linked at h levels, each unlinked by a possibly different thread, so
// no single thread cheaply proves full detachment for a tall tower. The
// geometric level distribution makes this mostly irrelevant — half of all
// nodes have height 1, and a height-1 node is fully detached by exactly one
// level-0 unlink. So recycling here is deliberately partial: height-1 nodes
// are freed by the thread whose level-0 store/CAS detaches them, and taller
// towers are left to the Go GC. The reuse-rate counters reflect this (about
// half of the churned nodes recycle); EXPERIMENTS.md discusses the trade.
//
// The epoch rules are the same as for the lists: every operation, including
// searches and scans, brackets itself with OpStart/OpEnd, so a freed node's
// fields are never reinitialized while any traversal that could have
// reached it is still running. The same brackets rule out ABA: a CAS
// compares a tagged word (successor address, mark) by value, and no address
// an operation loaded inside its bracket is handed out again before that
// bracket closes.
package skiplist

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mark"
	"repro/internal/ssmem"
)

// newNodePool builds the shared allocator pool when cfg asks for
// recycling; nil means recycling is off and the nil-safe ssmem helpers
// (Pin/Unpin/FreeTo/PoolStats) all no-op.
func newNodePool[T any](cfg core.Config) *ssmem.Pool[T] {
	if !cfg.Recycle {
		return nil
	}
	return ssmem.NewPool[T](cfg.RecycleThreshold)
}

// allocF returns a Fraser node of height h, recycling only height-1 nodes.
func allocF(a *ssmem.Allocator[fNode], k core.Key, v core.Value, h int) *fNode {
	if a == nil || h != 1 {
		return newFNode(k, v, h)
	}
	n := a.Alloc()
	n.key, n.val = k, v
	if n.next == nil {
		n.next = make([]mark.Link[fNode], 1)
	}
	return n
}

// freeF1 frees n if it is a recyclable height-1 node.
func freeF1(a *ssmem.Allocator[fNode], n *fNode) {
	if a != nil && n != nil && len(n.next) == 1 {
		a.Free(n)
	}
}

// freeF0Span walks the physically detached level-0 segment [from, to) —
// all marked, with frozen level-0 links — freeing its height-1 members.
func freeF0Span(a *ssmem.Allocator[fNode], from, to *fNode) {
	if a == nil {
		return
	}
	for n := from; n != to; {
		next := n.next[0].Load().N
		if len(n.next) == 1 {
			a.Free(n)
		}
		n = next
	}
}

// allocP returns a Pugh node of height h, recycling only height-1 nodes.
func allocP(a *ssmem.Allocator[pNode], k core.Key, v core.Value, h int) *pNode {
	if a == nil || h != 1 {
		return newPNode(k, v, h)
	}
	n := a.Alloc()
	n.key, n.val = k, v
	n.deleted.Store(false)
	if n.next == nil {
		n.next = make([]atomic.Pointer[pNode], 1)
	}
	return n
}

// freeP1 frees n if it is a recyclable height-1 node.
func freeP1(a *ssmem.Allocator[pNode], n *pNode) {
	if a != nil && n != nil && len(n.next) == 1 {
		a.Free(n)
	}
}
