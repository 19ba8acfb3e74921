// Ordered iteration (v2 surface) for the skip lists. ascend seeks the first
// candidate with a read-only tower descent (the same O(log n) path a search
// takes, never storing or locking — ASCY1 applies to scans too), then walks
// level 0 yielding live elements. Each type embeds core.OrderedVia, which
// derives ForEach/Size/Range/Min/Max from ascend (constructors wire it up).
// A scan observes each element at some point during the call, not one
// atomic snapshot.
package skiplist

import "repro/internal/core"

// ascend implements core.AscendFunc over the async list, bounded like every
// Seq traversal.
func (l *Seq) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	pred := l.head
	steps := 0
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		for curr := pred.next[lvl]; curr != nil && curr.key < lo; curr = pred.next[lvl] {
			pred = curr
			if steps++; l.limit > 0 && steps > l.limit {
				return
			}
		}
	}
	for curr := pred.next[0]; curr != nil && curr.key != tailKey; curr = curr.next[0] {
		if steps++; l.limit > 0 && steps > l.limit {
			return
		}
		if curr.key >= lo && !yield(curr.key, curr.val) {
			return
		}
	}
}

// ascend implements core.AscendFunc, skipping logically deleted nodes.
//
// The descent must never rest pred on a deleted node (here and in the
// Herlihy and Fraser descents below): a logically deleted node stays
// physically linked until a later operation splices it out, but its own
// next pointers are frozen at deletion time — elements inserted after its
// position since then are reachable only through the live chain, so a walk
// resuming from a dead pred would skip them. Deleted nodes are stepped
// over without moving pred, exactly like the searches' parse walks.
func (l *Pugh) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	pred := l.head
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		for curr := pred.next[lvl].Load(); curr != nil && curr.key < lo; curr = pred.next[lvl].Load() {
			if curr.deleted.Load() {
				break // resume the hunt one level down from live pred
			}
			pred = curr
		}
	}
	for curr := pred.next[0].Load(); curr.key != tailKey; curr = curr.next[0].Load() {
		if curr.key >= lo && !curr.deleted.Load() && !yield(curr.key, curr.val) {
			return
		}
	}
}

// ascend implements core.AscendFunc, yielding fully linked, unmarked nodes.
func (l *Herlihy) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	pred := l.head
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		for curr := pred.next[lvl].Load(); curr != nil && curr.key < lo; curr = pred.next[lvl].Load() {
			if curr.marked.Load() {
				break // never rest pred on a dead node (see Pugh.ascend)
			}
			pred = curr
		}
	}
	for curr := pred.next[0].Load(); curr.key != tailKey; curr = curr.next[0].Load() {
		if curr.key >= lo && curr.fullyLinked.Load() && !curr.marked.Load() &&
			!yield(curr.key, curr.val) {
			return
		}
	}
}

// ascend implements core.AscendFunc over the tagged (successor, marked)
// links, as in the searches.
// The descent steps over marked nodes via their frozen pointers without
// resting pred on them, exactly like parseOpt: a marked node stays
// physically linked until some later CAS swallows it, but its own next
// links are frozen at marking time — an element inserted after that
// (which detached the dead node from the live chain at that level) is
// only reachable through the live chain, so a pred resting on the dead
// node would start the level-0 walk on a stale chain and skip it. The
// level-0 walk itself may pass through marked nodes safely: a marked node
// still reachable from a live level-0 predecessor has not been bypassed
// by any insert, so its frozen next skips no live element.
func (l *Fraser) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	pred := l.head
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		curr := pred.next[lvl].Load().N
		for curr != nil && curr != l.tail {
			cRef := curr.next[lvl].Load()
			if cRef.Marked {
				curr = cRef.N // dead: step over, keep pred live
				continue
			}
			if curr.key >= lo {
				break
			}
			pred = curr
			curr = cRef.N
		}
	}
	for curr := pred.next[0].Load().N; curr != l.tail; {
		ref := curr.next[0].Load()
		if curr.key >= lo && !ref.Marked && !yield(curr.key, curr.val) {
			return
		}
		curr = ref.N
	}
}
