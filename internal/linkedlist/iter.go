// Ordered iteration for the linked lists: each list's one whole-structure
// traversal. Every list is a sorted set, so ascend is a plain bounded
// traversal from the head; the per-type differences are the node encoding
// and the liveness check. Each type embeds core.OrderedVia, which derives
// ForEach/Size/Range/Min/Max from the ascend iterator (constructors wire it
// up). Traversals are read-only (ASCY1-style: no stores, no locks, no
// retries) except Coupling's, and they observe each element at some point
// during the call rather than one atomic snapshot.
package linkedlist

import "repro/internal/core"

// ascend implements core.AscendFunc over the async list, bounded like every
// Seq traversal.
func (l *Seq) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	steps := 0
	for curr := l.head.next; curr != nil && curr.key != tailKey; curr = curr.next {
		if steps++; l.limit > 0 && steps > l.limit {
			return
		}
		if curr.key >= lo && !yield(curr.key, curr.val) {
			return
		}
	}
}

// ascend implements core.AscendFunc hand-over-hand, like every other
// coupling traversal; the fully lock-based class pays for its scans too.
// yield must not call back into the list.
func (l *Coupling) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	pred := l.head
	pred.lock.Lock()
	for {
		curr := pred.next
		curr.lock.Lock()
		pred.lock.Unlock()
		if curr.key == tailKey {
			curr.lock.Unlock()
			return
		}
		if curr.key >= lo && !yield(curr.key, curr.val) {
			curr.lock.Unlock()
			return
		}
		pred = curr
	}
}

// ascend implements core.AscendFunc, skipping logically deleted nodes.
func (l *Pugh) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	for curr := l.head.next.Load(); curr.key != tailKey; curr = curr.next.Load() {
		if curr.key >= lo && !curr.deleted.Load() && !yield(curr.key, curr.val) {
			return
		}
	}
}

// ascend implements core.AscendFunc, skipping marked nodes.
func (l *Lazy) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	for curr := l.head.next.Load(); curr.key != tailKey; curr = curr.next.Load() {
		if curr.key >= lo && !curr.marked.Load() && !yield(curr.key, curr.val) {
			return
		}
	}
}

// ascend implements core.AscendFunc over one immutable snapshot:
// binary-search to lo, then walk the array. Scans over a snapshot are fully
// linearizable.
func (l *Copy) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	s := l.snap.Load()
	i, _ := s.find(lo)
	for ; i < len(s.keys); i++ {
		if !yield(s.keys[i], s.vals[i]) {
			return
		}
	}
}

// Min implements core.Ordered in O(1) from the snapshot (shadowing the
// embedded scan).
func (l *Copy) Min() (core.Key, core.Value, bool) {
	s := l.snap.Load()
	if len(s.keys) == 0 {
		return 0, 0, false
	}
	return s.keys[0], s.vals[0], true
}

// Max implements core.Ordered in O(1) from the snapshot.
func (l *Copy) Max() (core.Key, core.Value, bool) {
	s := l.snap.Load()
	if len(s.keys) == 0 {
		return 0, 0, false
	}
	return s.keys[len(s.keys)-1], s.vals[len(s.keys)-1], true
}

// lfAscend is the shared Harris/Michael traversal over lfNode's tagged
// links, skipping marked nodes.
func lfAscend(head, tail *lfNode, lo core.Key, yield func(core.Key, core.Value) bool) {
	for curr := head.next.Load().N; curr != tail; {
		ref := curr.next.Load()
		if curr.key >= lo && !ref.Marked && !yield(curr.key, curr.val) {
			return
		}
		curr = ref.N
	}
}

// ascend implements core.AscendFunc.
func (l *Harris) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	lfAscend(l.head, l.tail, lo, yield)
}

// ascend implements core.AscendFunc.
func (l *Michael) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	lfAscend(l.head, l.tail, lo, yield)
}
