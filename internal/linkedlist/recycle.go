// SSMEM node recycling for the dynamic-node lists (ASCY4 carried to Go):
// behind core.Config.Recycle, removed nodes are routed through per-goroutine
// epoch allocators (ssmem.Pool) and reused once no concurrent operation can
// still hold them, instead of becoming Go GC garbage. Every operation —
// including read-only searches and scans — brackets itself with
// ssmem.Pin/Unpin so the epoch protocol knows which traversals are in
// flight.
//
// Ownership discipline for the lock-free lists (who may Free a node):
// exactly the thread whose CAS physically detaches it. A successful CAS on
// an unmarked next link detaches the chain segment between the link's old
// successor and the CAS's new target; every node in that segment is
// logically deleted with a frozen (marked, never CASed again) next link, so
// the winner can walk the detached segment and free each node exactly once.
// Competing detachments of overlapping segments are impossible: they would
// have to CAS the same predecessor link from the same value (only one wins)
// or a marked link (never done). The lazy list is simpler: the remover
// holds both node locks and is the unique physical unlinker.
//
// ABA safety: a CAS compares the tagged word (successor address, mark) by
// value, so it is safe only while the address it expects cannot name a
// different node. The epoch brackets guarantee that: an operation loads an
// address inside its bracket, and SSMEM hands a freed node out again only
// after every bracket open at its free has closed, so no address an
// operation still holds can be reused under it.
package linkedlist

import (
	"repro/internal/core"
	"repro/internal/ssmem"
)

// newNodePool builds the shared allocator pool for a list when cfg asks for
// recycling; nil means recycling is off and the nil-safe ssmem helpers
// (Pin/Unpin/FreeTo/PoolStats) all no-op.
func newNodePool[T any](cfg core.Config) *ssmem.Pool[T] {
	if !cfg.Recycle {
		return nil
	}
	return ssmem.NewPool[T](cfg.RecycleThreshold)
}

// allocLF returns an lfNode with key and val set; the caller installs the
// next link. Falls back to the Go heap when recycling is off.
func allocLF(a *ssmem.Allocator[lfNode], k core.Key, v core.Value) *lfNode {
	if a == nil {
		return &lfNode{key: k, val: v}
	}
	n := a.Alloc()
	n.key, n.val = k, v
	return n
}

// freeLFSpan frees every node of the physically detached chain segment
// [from, to). The segment's nodes are all marked, and a marked node's next
// link is never written again, so the walk is safe and terminates at to.
func freeLFSpan(a *ssmem.Allocator[lfNode], from, to *lfNode) {
	if a == nil {
		return
	}
	for n := from; n != to; {
		next := n.next.Load().N
		a.Free(n)
		n = next
	}
}
