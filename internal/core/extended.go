// Extended operation surface over the paper's basic CSDS interface.
//
// The paper's interface (§2) is search/insert/remove over 64-bit words,
// which reproduces the evaluation but is too narrow for building services on
// top of the library: real workloads need read-modify-write primitives and
// ordered scans. This file adds the v2 surface in two interfaces — Extended
// (Set plus Update and GetOrInsert) and Ordered (Range, Min, Max) — together
// with correct generic fallbacks so that every registered algorithm serves
// every operation, natively or not. Enumeration needs no fallback: ForEach
// belongs to Set itself. The registry's Capabilities report which
// path an algorithm takes, so callers and the harness can pick native
// implementations when the operation is on a hot path.
package core

import (
	"sort"
	"sync"
)

// UpdateFunc is one read-modify-write step. It receives the current value of
// the key (present reports whether the key is in the set) and returns the
// value to store and whether the key should be present afterwards:
// (v, true) sets the key to v (inserting if absent); (_, false) removes the
// key if present. An UpdateFunc must be pure: implementations may invoke it
// more than once while resolving conflicts, and only the last invocation
// takes effect.
type UpdateFunc func(old Value, present bool) (Value, bool)

// Updater is the native read-modify-write interface.
type Updater interface {
	// Update atomically transforms the entry for k with f. It returns the
	// value associated with k after the update and whether k is present.
	// When the update removes the entry, the removed value is returned
	// with present == false.
	Update(k Key, f UpdateFunc) (Value, bool)
}

// GetOrInserter is the native get-or-insert interface.
type GetOrInserter interface {
	// GetOrInsert returns the existing value for k (inserted == false),
	// or inserts v and returns it (inserted == true). Exactly one of any
	// set of concurrent GetOrInsert calls for an absent key inserts.
	GetOrInsert(k Key, v Value) (v2 Value, inserted bool)
}

// Extended is the v2 operation surface: the set interface plus
// read-modify-write and get-or-insert. Obtain one for any registered
// algorithm with Extend (or NewExtended).
type Extended interface {
	Set
	Updater
	GetOrInserter
}

// Ordered is the sorted-scan interface, implemented natively by the ordered
// families (sorted linked lists, skip lists, BSTs) and served through a
// sort-on-read fallback for the hash tables via OrderedOf.
type Ordered interface {
	// Range calls yield for the elements with keys in [lo, hi] in
	// strictly ascending key order and returns the number of elements
	// yielded. The scan is "snapshot-consistent enough": keys are sorted
	// and duplicate-free, every element present for the whole call is
	// yielded, and elements concurrently inserted or removed may or may
	// not appear.
	Range(lo, hi Key, yield func(k Key, v Value) bool) int
	// Min returns the smallest element, if any.
	Min() (Key, Value, bool)
	// Max returns the largest element, if any. Max may take linear time:
	// the singly-linked structures scan to the end, and the tree
	// implementations currently reuse their in-order iterator rather
	// than a rightmost descent.
	Max() (Key, Value, bool)
}

// updateStripes is the lock-stripe count of the fallback Update path.
const updateStripes = 64

// extWrap serves the Extended surface over any Set, using native methods
// when the implementation provides them and generic fallbacks otherwise.
type extWrap struct {
	Set
	u  Updater
	g  GetOrInserter
	mu [updateStripes]sync.Mutex
}

// Extend returns s itself when it natively implements the whole Extended
// surface, and otherwise wraps it, serving each operation natively when the
// implementation provides it and through a generic fallback when not.
//
// Fallback atomicity contract: Update calls through the same wrapper are
// atomic with respect to each other (they serialize on an internal lock
// stripe), so read-modify-write sequences such as counters are exact as long
// as every writer of the key uses Update through the same Extended value.
// Mixing fallback Update with plain Insert/Remove on the same key stays
// linearizable per primitive, but the plain writer's value may be consumed
// by the in-flight update (as with ConcurrentMap.compute in Java). Because
// the fallback replaces a value by Remove-then-Insert, concurrent readers
// (Search, Range) can observe the key briefly absent while its value is
// being replaced. Native implementations (see Capabilities) are atomic
// against all operations and update in place with no absence window.
func Extend(s Set) Extended {
	if e, ok := s.(Extended); ok {
		return e
	}
	w := &extWrap{Set: s}
	w.u, _ = s.(Updater)
	w.g, _ = s.(GetOrInserter)
	if o, ok := s.(Ordered); ok {
		// Keep the native ordered surface visible through the wrapper,
		// so OrderedOf(Extend(s)) does not silently downgrade a sorted
		// structure to the snapshot-and-sort fallback.
		return &orderedExtWrap{extWrap: w, ord: o}
	}
	return w
}

// orderedExtWrap is extWrap for natively ordered structures: the Ordered
// surface delegates straight to the implementation.
type orderedExtWrap struct {
	*extWrap
	ord Ordered
}

func (w *orderedExtWrap) Range(lo, hi Key, yield func(Key, Value) bool) int {
	return w.ord.Range(lo, hi, yield)
}

func (w *orderedExtWrap) Min() (Key, Value, bool) { return w.ord.Min() }

func (w *orderedExtWrap) Max() (Key, Value, bool) { return w.ord.Max() }

// Fallback wraps s like Extend but ignores native Update and GetOrInsert
// implementations, always taking the generic paths. It exists so the
// conformance suite can check fallback-vs-native parity; library code should
// use Extend.
func Fallback(s Set) Extended {
	return &extWrap{Set: s}
}

func (w *extWrap) stripe(k Key) *sync.Mutex {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return &w.mu[h>>(64-6)] // top 6 bits: updateStripes == 64
}

// Update implements Updater. The fallback takes a lock stripe (see Extend's
// atomicity contract) and replays f until the transition applies cleanly
// against the set's own atomic primitives.
func (w *extWrap) Update(k Key, f UpdateFunc) (Value, bool) {
	if w.u != nil {
		return w.u.Update(k, f)
	}
	mu := w.stripe(k)
	mu.Lock()
	defer mu.Unlock()
	for {
		old, present := w.Search(k)
		nv, keep := f(old, present)
		if !present {
			if !keep {
				return 0, false
			}
			if w.Insert(k, nv) {
				return nv, true
			}
			continue // lost to a concurrent plain insert; re-read
		}
		if keep && nv == old {
			return nv, true // no-op transition: nothing to write
		}
		cur, ok := w.Remove(k)
		if !ok {
			continue // a concurrent remover beat us; re-read
		}
		if cur != old {
			// A plain writer replaced the value between the search
			// and the remove; apply f to the authoritative value.
			nv, keep = f(cur, true)
		}
		for {
			if !keep {
				return cur, false
			}
			if w.Insert(k, nv) {
				return nv, true
			}
			// A plain insert slipped into the remove window; fold
			// its value into this update.
			cur, ok = w.Remove(k)
			if !ok {
				continue // and it vanished again; retry our insert
			}
			nv, keep = f(cur, true)
		}
	}
}

// GetOrInsert implements GetOrInserter. The fallback loop needs no stripe:
// insert-once follows from Insert's own atomicity.
func (w *extWrap) GetOrInsert(k Key, v Value) (Value, bool) {
	if w.g != nil {
		return w.g.GetOrInsert(k, v)
	}
	for {
		if got, ok := w.Search(k); ok {
			return got, false
		}
		if w.Insert(k, v) {
			return v, true
		}
	}
}

// OrderedOf returns an ordered view of s: s itself when the implementation
// is natively ordered (native reports true), else a fallback that snapshots
// the structure via ForEach and sorts (native false). The fallback costs
// O(n log n) per Range/Min/Max call.
func OrderedOf(s Set) (o Ordered, native bool) {
	if o, ok := s.(Ordered); ok {
		return o, true
	}
	return sortedView{s}, false
}

type kvPair struct {
	k Key
	v Value
}

// sortedView serves Ordered over any Set by collect-and-sort.
type sortedView struct{ set Set }

func (s sortedView) Range(lo, hi Key, yield func(Key, Value) bool) int {
	if hi < lo {
		return 0
	}
	var items []kvPair
	s.set.ForEach(func(k Key, v Value) bool {
		if k >= lo && k <= hi {
			items = append(items, kvPair{k, v})
		}
		return true
	})
	sort.Slice(items, func(i, j int) bool { return items[i].k < items[j].k })
	n := 0
	for i, e := range items {
		if i > 0 && e.k == items[i-1].k {
			continue // concurrent reinsertion can snapshot a key twice
		}
		n++
		if !yield(e.k, e.v) {
			break
		}
	}
	return n
}

func (s sortedView) Min() (Key, Value, bool) {
	var mk Key
	var mv Value
	found := false
	s.set.ForEach(func(k Key, v Value) bool {
		if !found || k < mk {
			mk, mv, found = k, v, true
		}
		return true
	})
	return mk, mv, found
}

func (s sortedView) Max() (Key, Value, bool) {
	var mk Key
	var mv Value
	found := false
	s.set.ForEach(func(k Key, v Value) bool {
		if !found || k > mk {
			mk, mv, found = k, v, true
		}
		return true
	})
	return mk, mv, found
}

// AscendFunc is the iterator shape the ordered implementations expose
// internally: visit elements with keys >= lo in ascending order until yield
// returns false. The helpers below derive ForEach, Size and the whole
// Ordered surface from it.
type AscendFunc func(lo Key, yield func(k Key, v Value) bool)

// RangeAscend builds Ordered.Range from an ascend iterator. It enforces the
// Range contract — strictly ascending, duplicate-free, within [lo, hi] —
// even when concurrent structural changes (e.g. a tree rotation mid-walk)
// would make the raw traversal misbehave.
func RangeAscend(ascend AscendFunc, lo, hi Key, yield func(Key, Value) bool) int {
	if hi < lo {
		return 0
	}
	n := 0
	var last Key
	ascend(lo, func(k Key, v Value) bool {
		if k > hi {
			return false
		}
		if k < lo || (n > 0 && k <= last) {
			return true
		}
		last = k
		n++
		return yield(k, v)
	})
	return n
}

// OrderedVia implements ForEach, Size and the whole Ordered surface over
// one AscendFunc. The ordered implementations embed it and point Ascend at
// their own iterator in the constructor, so the five delegation methods
// exist once here instead of once per structure.
type OrderedVia struct {
	Ascend AscendFunc
}

// ForEach implements Set.
func (o OrderedVia) ForEach(yield func(Key, Value) bool) { o.Ascend(0, yield) }

// Size implements Set: the number of elements ForEach yields.
func (o OrderedVia) Size() int {
	n := 0
	o.Ascend(0, func(Key, Value) bool { n++; return true })
	return n
}

// Range implements Ordered.
func (o OrderedVia) Range(lo, hi Key, yield func(Key, Value) bool) int {
	return RangeAscend(o.Ascend, lo, hi, yield)
}

// Min implements Ordered.
func (o OrderedVia) Min() (Key, Value, bool) {
	var mk Key
	var mv Value
	found := false
	o.Ascend(0, func(k Key, v Value) bool {
		mk, mv, found = k, v, true
		return false
	})
	return mk, mv, found
}

// Max implements Ordered. Max may take linear time: singly-linked
// structures scan to the end, and the trees currently reuse their in-order
// iterator rather than a rightmost descent.
func (o OrderedVia) Max() (Key, Value, bool) {
	var mk Key
	var mv Value
	found := false
	o.Ascend(0, func(k Key, v Value) bool {
		if !found || k > mk {
			mk, mv, found = k, v, true
		}
		return true
	})
	return mk, mv, found
}
