package ascylib

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/ssmem"
)

// IntKey is the key constraint of Map: any integer type. The encoding onto
// the library's 64-bit key space preserves order (signed types are mapped
// through a sign-bit flip), so Range/Min/Max work on typed keys, including
// negative ones.
type IntKey interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// Map is the typed facade over the 64-bit core: a concurrent map from an
// integer key type K to an arbitrary value type V, backed by any registered
// algorithm. It replaces the hand-rolled key-hash + value-arena code the
// examples used to carry.
//
// Values: every V is boxed. The structure's value word is a
// generation-tagged handle to a slot that points at an immutable box holding
// V. An overwrite CASes a fresh box into the slot and never writes the
// structure, so a concurrent Get cannot miss a key being overwritten, and a
// stale handle reads as a miss, never as another key's value. V = uint64
// pays the same box and slot per entry as any other V.
//
// Keys: the two largest values of a 64-bit key domain (e.g. MaxUint64 and
// MaxUint64-1 for K = uint64, MaxInt64 and MaxInt64-1 for K = int64) are
// reserved by the core's sentinels; using them panics. Smaller key types
// are unaffected.
//
// All operations are safe for concurrent use when the backing algorithm is
// (registry Safe flag), and every per-key operation is atomic against every
// other.
type Map[K IntKey, V any] struct {
	set    core.Extended
	raw    core.Set // the unwrapped structure (recycling stats)
	ord    core.Ordered
	native bool
	signed bool
	slots  slotTable[V]
}

// NewMap builds a typed map on the named algorithm ("ht-clht-lf" and
// "sl-fraser-opt" are the headline choices for unordered and ordered use).
func NewMap[K IntKey, V any](algo string, opts ...Option) (*Map[K, V], error) {
	s, err := core.New(algo, opts...)
	if err != nil {
		return nil, err
	}
	ord, native := core.OrderedOf(s)
	var zk K
	return &Map[K, V]{
		set:    core.Extend(s),
		raw:    s,
		ord:    ord,
		native: native,
		signed: zk-1 < zk,
	}, nil
}

// MustNewMap is NewMap, panicking on error.
func MustNewMap[K IntKey, V any](algo string, opts ...Option) *Map[K, V] {
	m, err := NewMap[K, V](algo, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// enc maps a typed key onto the core's key space, preserving order.
func (m *Map[K, V]) enc(k K) core.Key {
	u := uint64(k)
	if m.signed {
		u ^= 1 << 63
	}
	u++
	if u == 0 || u == math.MaxUint64 {
		panic(fmt.Sprintf("ascylib: key %v is in the reserved top of the key domain", k))
	}
	return core.Key(u)
}

// dec inverts enc.
func (m *Map[K, V]) dec(c core.Key) K {
	u := uint64(c) - 1
	if m.signed {
		u ^= 1 << 63
	}
	return K(u)
}

// load decodes a value word read from the structure. ok is false when the
// word's slot has been retired since the word was read: the entry is gone
// and its slot may already serve another key.
func (m *Map[K, V]) load(w core.Value) (V, bool) { return deref(m.slots.load(w)) }

func deref[V any](p *V) (V, bool) {
	if p == nil {
		var zero V
		return zero, false
	}
	return *p, true
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) { return deref(m.lookup(k)) }

// Insert adds (k, v) if k is absent and reports whether it did.
func (m *Map[K, V]) Insert(k K, v V) bool {
	inserted := false
	m.publish(k, func(cur *V) (*V, bool) {
		inserted = cur == nil
		return &v, inserted
	})
	return inserted
}

// Put stores v under k, replacing any existing value (upsert). It reports
// whether the key was fresh. The value is replaced in its slot, with no
// window in which the key is absent.
func (m *Map[K, V]) Put(k K, v V) bool {
	fresh := false
	m.publish(k, func(cur *V) (*V, bool) {
		fresh = cur == nil
		return &v, true
	})
	return fresh
}

// GetOrInsert returns the existing value for k, or stores and returns v.
func (m *Map[K, V]) GetOrInsert(k K, v V) (V, bool) {
	got, inserted := v, false
	m.publish(k, func(cur *V) (*V, bool) {
		if cur != nil {
			got, inserted = *cur, false
			return nil, false
		}
		got, inserted = v, true
		return &v, true
	})
	return got, inserted
}

// Update atomically transforms the entry for k: f receives the current
// value (present reports existence) and returns the new value and whether
// the key should remain present. It returns the value after the update and
// the resulting presence. f must be pure and must not call back into the
// map: it may run more than once, and only the run whose result is
// published counts.
func (m *Map[K, V]) Update(k K, f func(old V, present bool) (V, bool)) (V, bool) {
	var out V
	var present bool
	m.publish(k, func(cur *V) (*V, bool) {
		old, had := deref(cur)
		nv, keep := f(old, had)
		if out, present = nv, keep; !keep {
			var zero V
			out = zero
			return nil, had
		}
		return &nv, true
	})
	return out, present
}

// Delete removes k, returning the removed value.
func (m *Map[K, V]) Delete(k K) (V, bool) {
	var old V
	var had bool
	m.publish(k, func(cur *V) (*V, bool) {
		old, had = deref(cur)
		return nil, had
	})
	return old, had
}

// lookup is the read path, shared with ShardedStringMap: one core search and
// one slot load, with no lock and no store. nil means k is absent.
func (m *Map[K, V]) lookup(k K) *V {
	w, ok := m.search(k)
	if !ok {
		return nil
	}
	return m.slots.load(w)
}

// search is lookup's first step: k's slot handle in the core. The staged
// reads of ShardedStringMap.GetManyBytesHashed run it for a whole chunk of
// keys before any slot load.
func (m *Map[K, V]) search(k K) (core.Value, bool) { return m.set.Search(m.enc(k)) }

// publish is the write path, shared with ShardedStringMap (whose entries are
// collision chains). f maps k's current entry (nil when k is absent) to the
// immutable entry that replaces it (nil removes k) and reports whether to
// write at all; it may run more than once, and only the run whose result is
// published counts. An overwrite CASes the slot and leaves the structure
// alone; a fresh entry fills a slot, then is inserted; removing the entry
// CASes the slot to nil, unlinks the handle and frees the slot. See
// DESIGN.md, "The typed facade", for why slot reuse is safe.
func (m *Map[K, V]) publish(k K, f func(cur *V) (next *V, write bool)) {
	ek := m.enc(k)
	h := uint64(ek)
	for {
		w, found := m.set.Search(ek)
		var cur *V
		if found {
			if cur = m.slots.load(w); cur == nil {
				m.unlink(ek, w)
				continue
			}
		}
		next, write := f(cur)
		switch {
		case !write || cur == nil && next == nil:
			return
		case cur == nil:
			w = m.slots.alloc(h, next)
			if m.set.Insert(ek, w) {
				return
			}
			m.slots.free(h, w) // a concurrent writer created the entry first
		case next != nil:
			if m.slots.cas(w, cur, next) {
				return
			}
		case m.slots.cas(w, cur, nil):
			m.unlink(ek, w)
			m.slots.free(h, w)
			return
		}
	}
}

// unlink removes k from the structure only if it still maps to the handle
// w, whose slot is retired: a fresh entry under k holds another slot or a
// later generation, and is left alone.
func (m *Map[K, V]) unlink(k core.Key, w core.Value) {
	m.set.Update(k, func(old core.Value, present bool) (core.Value, bool) {
		return old, present && old != w
	})
}

// Len counts the entries. Like Set.Size: linear time, quiescent use.
func (m *Map[K, V]) Len() int { return m.set.Size() }

// ForEach enumerates entries until yield returns false. Entries deleted
// concurrently may be skipped; no entry is yielded with a recycled value.
func (m *Map[K, V]) ForEach(yield func(K, V) bool) { m.set.ForEach(m.decoded(yield)) }

// decoded adapts yield to the structure's enumerations, skipping entries
// deleted under the scan.
func (m *Map[K, V]) decoded(yield func(K, V) bool) func(core.Key, core.Value) bool {
	return func(k core.Key, w core.Value) bool {
		v, valid := m.load(w)
		return !valid || yield(m.dec(k), v)
	}
}

// NativeOrder reports whether the backing structure enumerates in key order
// itself; when false, Range/Min/Max snapshot and sort (O(n log n)).
func (m *Map[K, V]) NativeOrder() bool { return m.native }

// RecycleStats returns the backing structure's SSMEM allocator counters, and
// a zero Stats for every structure but ht-urcu-ssmem, whose nodes are the
// only ones not owned by the Go GC.
func (m *Map[K, V]) RecycleStats() ssmem.Stats {
	if r, ok := m.raw.(core.Recycler); ok {
		return r.RecycleStats()
	}
	return ssmem.Stats{}
}

// Range yields the entries with keys in [lo, hi] in ascending key order and
// returns how many were yielded.
func (m *Map[K, V]) Range(lo, hi K, yield func(K, V) bool) int {
	if hi < lo {
		return 0
	}
	n := 0
	m.ord.Range(m.enc(lo), m.enc(hi), func(k core.Key, w core.Value) bool {
		v, valid := m.load(w)
		if !valid {
			return true
		}
		n++
		return yield(m.dec(k), v)
	})
	return n
}

// Min returns the smallest-keyed entry.
func (m *Map[K, V]) Min() (K, V, bool) { return m.extreme(m.ord.Min) }

// Max returns the largest-keyed entry.
func (m *Map[K, V]) Max() (K, V, bool) { return m.extreme(m.ord.Max) }

func (m *Map[K, V]) extreme(end func() (core.Key, core.Value, bool)) (K, V, bool) {
	for {
		k, w, ok := end()
		if !ok {
			var zk K
			var zv V
			return zk, zv, false
		}
		if v, valid := m.load(w); valid {
			return m.dec(k), v, true
		}
		m.unlink(k, w) // a retired entry its remover has not unlinked yet
	}
}

// --- slot table ---

// The slot table holds boxed entries in chunks that never move, found
// through a directory grown copy-on-write, so readers take no lock. Freed
// slots wait on mutex-guarded stacks that only entry creation and
// destruction touch.
const (
	slotChunkBits = 12
	slotFreeLists = 16
)

// slot holds one core entry's current entry, nil once retired; gen counts
// its retirements. A handle (the core value word) is gen<<32 | index.
type slot[T any] struct {
	p   atomic.Pointer[T]
	gen atomic.Uint32
}

type slotChunk[T any] [1 << slotChunkBits]slot[T]

type slotTable[T any] struct {
	dir     atomic.Pointer[[]*slotChunk[T]]
	mu      sync.Mutex // serializes growth
	n       uint32     // slots ever handed out, under mu
	retired [slotFreeLists]struct {
		mu  sync.Mutex
		idx []uint32
		_   pad.CacheLinePad
	}
}

func (t *slotTable[T]) at(w core.Value) *slot[T] {
	i := uint32(w)
	return &(*t.dir.Load())[i>>slotChunkBits][i&(1<<slotChunkBits-1)]
}

// load returns the entry handle w names, or nil once its slot is retired.
// gen is read after p: a match proves p was loaded before any retirement,
// so p is w's entry and not that of a later owner of the slot.
func (t *slotTable[T]) load(w core.Value) *T {
	s := t.at(w)
	p := s.p.Load()
	if s.gen.Load() != uint32(w>>32) {
		return nil
	}
	return p
}

// cas swaps the entry under handle w. The GC keeps cur's address from being
// reused while the caller holds it, so success means nothing was published
// in between.
func (t *slotTable[T]) cas(w core.Value, cur, next *T) bool {
	return t.at(w).p.CompareAndSwap(cur, next)
}

// alloc fills a free slot with e and returns its handle. h, the entry's
// core key, picks the free list.
func (t *slotTable[T]) alloc(h uint64, e *T) core.Value {
	fl := &t.retired[slotFreeList(h)]
	fl.mu.Lock()
	n := len(fl.idx)
	var i uint32
	if n > 0 {
		i, fl.idx = fl.idx[n-1], fl.idx[:n-1]
	}
	fl.mu.Unlock()
	if n == 0 {
		i = t.grow()
	}
	s := t.at(core.Value(i))
	s.p.Store(e)
	return core.Value(uint64(s.gen.Load())<<32 | uint64(i))
}

// free retires the slot handle w names, which the caller owns: its entry is
// unpublished, or unlinked from the structure.
func (t *slotTable[T]) free(h uint64, w core.Value) {
	s := t.at(w)
	s.p.Store(nil)
	s.gen.Add(1)
	fl := &t.retired[slotFreeList(h)]
	fl.mu.Lock()
	fl.idx = append(fl.idx, uint32(w))
	fl.mu.Unlock()
}

// grow hands out a never-used slot, adding a chunk when the last is full.
func (t *slotTable[T]) grow() uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == math.MaxUint32 {
		panic("ascylib: slot table exhausted")
	}
	i := t.n
	t.n++
	if i&(1<<slotChunkBits-1) == 0 {
		var dir []*slotChunk[T]
		if d := t.dir.Load(); d != nil {
			dir = *d
		}
		dir = append(dir[:len(dir):len(dir)], new(slotChunk[T]))
		t.dir.Store(&dir)
	}
	return i
}

// slotFreeList picks the free list for core key h. An entry is created and
// destroyed on the same list, so no list hoards slots another one needs.
func slotFreeList(h uint64) uint64 {
	return h * 0x9E3779B97F4A7C15 >> 60 // top 4 bits: slotFreeLists == 16
}
