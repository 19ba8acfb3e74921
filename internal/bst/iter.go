// Ordered iteration (v2 surface) for the BSTs: in-order traversals with
// lo-side pruning (a subtree is descended only if it can hold keys >= lo;
// the hi bound cuts the walk off via yield). Each type embeds
// core.OrderedVia, which derives ForEach/Range/Min/Max from ascend
// (constructors wire it up). Traversals are read-only — no locks, no
// helping — and, like Size, observe each element at some point during the
// call rather than one atomic snapshot; core.RangeAscend enforces the
// sorted, duplicate-free Range contract even when a concurrent rotation
// moves nodes mid-walk. The async trees bound their walks with
// AsyncStepLimit exactly like their Size methods.
package bst

import "repro/internal/core"

// --- SeqInt (internal tree, async bound) ---

func siAscend(nd *siNode, lo core.Key, steps *int, limit int, yield func(core.Key, core.Value) bool) bool {
	if nd == nil {
		return true
	}
	if *steps++; limit > 0 && *steps > limit {
		return false
	}
	if lo < nd.key && !siAscend(nd.left, lo, steps, limit, yield) {
		return false
	}
	if nd.key >= lo && nd.key != sentinelKey && !yield(nd.key, nd.val) {
		return false
	}
	return siAscend(nd.right, lo, steps, limit, yield)
}

// ascend implements core.AscendFunc.
func (t *SeqInt) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	steps := 0
	siAscend(t.root.left, lo, &steps, t.limit, yield)
}

// --- SeqExt (external tree, async bound) ---

func seAscend(nd *seNode, lo core.Key, steps *int, limit int, yield func(core.Key, core.Value) bool) bool {
	if nd == nil {
		return true
	}
	if nd.leaf() {
		if nd.key == sentinelKey || nd.key < lo {
			return true
		}
		return yield(nd.key, nd.val)
	}
	if *steps++; limit > 0 && *steps > limit {
		return false
	}
	// Router: left subtree holds keys < nd.key, right holds >= nd.key.
	if lo < nd.key && !seAscend(nd.left, lo, steps, limit, yield) {
		return false
	}
	return seAscend(nd.right, lo, steps, limit, yield)
}

// ascend implements core.AscendFunc.
func (t *SeqExt) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	steps := 0
	seAscend(t.root.left, lo, &steps, t.limit, yield)
}

// --- BST-TK (external) ---

func tkAscend(nd *tkNode, lo core.Key, yield func(core.Key, core.Value) bool) bool {
	if nd == nil {
		return true
	}
	if nd.isLeaf() {
		if nd.key == sentinelKey || nd.key < lo {
			return true
		}
		return yield(nd.key, nd.val())
	}
	if lo < nd.key && !tkAscend(nd.left.Load(), lo, yield) {
		return false
	}
	return tkAscend(nd.right.Load(), lo, yield)
}

// ascend implements core.AscendFunc.
func (t *TK) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	tkAscend(t.groot.left.Load(), lo, yield)
}

// --- Natarajan (external, flagged/tagged edges) ---

func nmAscend(nd *nmNode, lo core.Key, yield func(core.Key, core.Value) bool) bool {
	if nd == nil {
		return true
	}
	if !nd.internal {
		if nd.key == sentinelKey || nd.key < lo {
			return true
		}
		return yield(nd.key, nd.val)
	}
	if lo < nd.key && !nmAscend(nd.left.Load().n, lo, yield) {
		return false
	}
	return nmAscend(nd.right.Load().n, lo, yield)
}

// ascend implements core.AscendFunc.
func (t *Natarajan) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	nmAscend(t.root.left.Load().n, lo, yield)
}

// --- Ellen (external, Info-record helping; scans never help) ---

func eAscend(nd *eNode, lo core.Key, yield func(core.Key, core.Value) bool) bool {
	if nd == nil {
		return true
	}
	if !nd.internal {
		if nd.key == sentinelKey || nd.key < lo {
			return true
		}
		return yield(nd.key, nd.val)
	}
	if lo < nd.key && !eAscend(nd.left.Load(), lo, yield) {
		return false
	}
	return eAscend(nd.right.Load(), lo, yield)
}

// ascend implements core.AscendFunc.
func (t *Ellen) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	eAscend(t.root.left.Load(), lo, yield)
}

// --- Howley (internal; keys are mutable under relocation) ---

func hwAscend(nd *hwNode, lo core.Key, yield func(core.Key, core.Value) bool) bool {
	if nd.absent() {
		return true
	}
	kv := nd.kv.Load()
	if lo < kv.key && !hwAscend(nd.left.Load(), lo, yield) {
		return false
	}
	// Nodes whose op word is MARK are logically deleted (awaiting
	// excision), exactly as in Size.
	if kv.key >= lo && nd.op.Load().state != hwMark {
		if !yield(kv.key, kv.val) {
			return false
		}
	}
	return hwAscend(nd.right.Load(), lo, yield)
}

// ascend implements core.AscendFunc.
func (t *Howley) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	hwAscend(t.root.right.Load(), lo, yield)
}

// --- Bronson (partially external: routing nodes carry no value) ---

func brAscend(nd *brNode, lo core.Key, yield func(core.Key, core.Value) bool) bool {
	if nd == nil {
		return true
	}
	if lo < nd.key && !brAscend(nd.left.Load(), lo, yield) {
		return false
	}
	if nd.key >= lo && nd.hasVal.Load() &&
		!yield(nd.key, core.Value(nd.val.Load())) {
		return false
	}
	return brAscend(nd.right.Load(), lo, yield)
}

// ascend implements core.AscendFunc.
func (t *Bronson) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	brAscend(t.root.right.Load(), lo, yield)
}

// --- Drachsler (the pred/succ logical-ordering list IS the sorted order) ---

// ascend implements core.AscendFunc.
func (t *Drachsler) ascend(lo core.Key, yield func(core.Key, core.Value) bool) {
	start := t.locate(nil, lo)
	if start == t.head {
		start = start.succ.Load()
	}
	for curr := start; curr != t.tail; curr = curr.succ.Load() {
		if curr.key >= lo && !curr.marked.Load() && !yield(curr.key, curr.val) {
			return
		}
	}
}
