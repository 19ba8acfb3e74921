package ascylib

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
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
// Values: when V is exactly uint64 (or Value), values ride directly in the
// structure's 64-bit value word — the zero-overhead path. Any other V lives
// in a sharded, generation-tagged arena and the word is a tagged slot
// handle; a reader that loses the race with a concurrent Delete detects the
// stale generation and retries, so torn or recycled values are never
// returned.
//
// Keys: the two largest values of a 64-bit key domain (e.g. MaxUint64 and
// MaxUint64-1 for K = uint64, MaxInt64 and MaxInt64-1 for K = int64) are
// reserved by the core's sentinels; using them panics. Smaller key types
// are unaffected.
//
// All operations are safe for concurrent use when the backing algorithm is
// (registry Safe flag). Update's atomicity follows the backing algorithm's
// capability: native (e.g. ht-clht-lb) is atomic against everything;
// fallback Updates are atomic against each other through this Map.
type Map[K IntKey, V any] struct {
	set    core.Extended
	raw    core.Set // the unwrapped structure (recycling stats, snapshots)
	ord    core.Ordered
	native bool
	signed bool
	direct bool
	arena  *mapArena[V]
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
	m := &Map[K, V]{
		set:    core.Extend(s),
		raw:    s,
		ord:    ord,
		native: native,
		signed: zk-1 < zk,
	}
	var zv V
	switch any(zv).(type) {
	case uint64, core.Value:
		m.direct = true
	default:
		m.arena = &mapArena[V]{}
	}
	return m, nil
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

func (m *Map[K, V]) encVal(v V) core.Value {
	if m.direct {
		switch x := any(v).(type) {
		case uint64:
			return core.Value(x)
		case core.Value:
			return x
		}
	}
	return m.arena.alloc(v)
}

// load decodes a value word. ok is false only in arena mode when the slot
// was concurrently freed (the caller retries against the index).
func (m *Map[K, V]) load(w core.Value) (V, bool) {
	if m.direct {
		var v V
		switch any(v).(type) {
		case uint64:
			return any(uint64(w)).(V), true
		default:
			return any(w).(V), true
		}
	}
	return m.arena.get(w)
}

func (m *Map[K, V]) free(w core.Value) {
	if !m.direct {
		m.arena.free(w)
	}
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	ek := m.enc(k)
	for {
		w, ok := m.set.Search(ek)
		if !ok {
			var zero V
			return zero, false
		}
		if v, valid := m.load(w); valid {
			return v, true
		}
		// The entry was deleted (and its slot recycled) between the
		// index search and the arena read; re-run the search.
	}
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (m *Map[K, V]) Insert(k K, v V) bool {
	w := m.encVal(v)
	if m.set.Insert(m.enc(k), w) {
		return true
	}
	m.free(w)
	return false
}

// Put stores v under k, replacing any existing value (upsert). It reports
// whether the key was fresh. On algorithms without native Update (see
// Capabilities), replacement is remove-then-insert, so a concurrent Get of
// the same key can briefly miss; ht-clht-lb replaces in place with no
// window.
func (m *Map[K, V]) Put(k K, v V) bool {
	w := m.encVal(v)
	var replaced core.Value
	var had bool
	m.set.Update(m.enc(k), func(old core.Value, present bool) (core.Value, bool) {
		replaced, had = old, present
		return w, true
	})
	if had && replaced != w {
		m.free(replaced)
	}
	return !had
}

// GetOrInsert returns the existing value for k, or stores and returns v.
func (m *Map[K, V]) GetOrInsert(k K, v V) (V, bool) {
	ek := m.enc(k)
	w := m.encVal(v)
	for {
		got, inserted := m.set.GetOrInsert(ek, w)
		if inserted {
			return v, true
		}
		if gv, valid := m.load(got); valid {
			m.free(w)
			return gv, false
		}
		// The incumbent was deleted under us; try to insert again.
	}
}

// updState carries one Update call's mutable state in a single heap
// object: the callback is a method value over it, so the call costs two
// allocations (state + method value) instead of one boxed cell per
// captured variable — mutations are the facade's hottest write path.
type updState[K IntKey, V any] struct {
	m             *Map[K, V]
	f             func(old V, present bool) (V, bool)
	slotW         core.Value
	slotAllocated bool
	lastV         V
	replaced      core.Value
	had           bool
}

func (s *updState[K, V]) step(old core.Value, ok bool) (core.Value, bool) {
	m := s.m
	var ov V
	if ok {
		ov, _ = m.load(old) // a stale read only happens on a
		// speculative invocation whose result is discarded
	}
	nv, keep := s.f(ov, ok)
	s.lastV = nv
	s.replaced, s.had = old, ok
	if !keep {
		return 0, false
	}
	if m.direct {
		return m.encVal(nv), true
	}
	if !s.slotAllocated {
		s.slotW = m.arena.alloc(nv)
		s.slotAllocated = true
	} else {
		m.arena.set(s.slotW, nv) // still private: not yet published
	}
	return s.slotW, true
}

// Update atomically transforms the entry for k: f receives the current
// value (present reports existence) and returns the new value and whether
// the key should remain present. It returns the value after the update and
// the resulting presence. f must be pure and must not call back into the
// map: it may run more than once, and with native algorithms it runs under
// the structure's own lock.
func (m *Map[K, V]) Update(k K, f func(old V, present bool) (V, bool)) (V, bool) {
	st := updState[K, V]{m: m, f: f}
	_, present := m.set.Update(m.enc(k), st.step)
	if present {
		if st.had {
			m.free(st.replaced) // the fresh slot replaced the old word
		}
		return st.lastV, true
	}
	if st.had {
		m.free(st.replaced) // the update removed the entry
	}
	if st.slotAllocated {
		m.free(st.slotW) // allocated on a path that ultimately removed
	}
	var zero V
	return zero, false
}

// Delete removes k, returning the removed value.
func (m *Map[K, V]) Delete(k K) (V, bool) {
	w, ok := m.set.Remove(m.enc(k))
	if !ok {
		var zero V
		return zero, false
	}
	v, _ := m.load(w) // we own w now; it cannot be recycled under us
	m.free(w)
	return v, true
}

// Len counts the entries. Like Set.Size: linear time, quiescent use.
func (m *Map[K, V]) Len() int { return m.set.Size() }

// ForEach enumerates entries until yield returns false. Entries deleted
// concurrently may be skipped; no entry is yielded with a recycled value.
func (m *Map[K, V]) ForEach(yield func(K, V) bool) {
	m.set.ForEach(func(k core.Key, w core.Value) bool {
		v, valid := m.load(w)
		if !valid {
			return true // deleted under the scan
		}
		return yield(m.dec(k), v)
	})
}

// Snapshot enumerates entries through the backing structure's
// consistent-cut traversal (core.Snapshotter) and reports whether that
// traversal is the structure's own single-walk cut (native == true) or the
// ForEach fallback. Each yielded entry was live at some instant during the
// call; entries deleted under the scan are skipped, exactly as in ForEach.
func (m *Map[K, V]) Snapshot(yield func(K, V) bool) bool {
	sn, native := core.SnapshotterOf(m.raw)
	sn.Snapshot(func(k core.Key, w core.Value) bool {
		v, valid := m.load(w)
		if !valid {
			return true // deleted under the scan
		}
		return yield(m.dec(k), v)
	})
	return native
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
func (m *Map[K, V]) Min() (K, V, bool) {
	for {
		k, w, ok := m.ord.Min()
		if !ok {
			var zk K
			var zv V
			return zk, zv, false
		}
		if v, valid := m.load(w); valid {
			return m.dec(k), v, true
		}
	}
}

// Max returns the largest-keyed entry.
func (m *Map[K, V]) Max() (K, V, bool) {
	for {
		k, w, ok := m.ord.Max()
		if !ok {
			var zk K
			var zv V
			return zk, zv, false
		}
		if v, valid := m.load(w); valid {
			return m.dec(k), v, true
		}
	}
}

// --- value arena ---

// Arena word layout: [ gen:32 | shard:4 | slot:28 ]. The generation tag
// makes slot recycling ABA-safe: free bumps the generation, so a handle to
// a recycled slot no longer matches and readers retry via the index.
const (
	arenaShards   = 16
	arenaSlotBits = 28
	arenaShardSh  = arenaSlotBits
	arenaGenSh    = 32
)

type arenaSlot[V any] struct {
	gen uint32
	val V
}

type arenaShard[V any] struct {
	mu    sync.RWMutex
	slots []arenaSlot[V]
	free  []uint32
}

type mapArena[V any] struct {
	shards [arenaShards]arenaShard[V]
	next   atomic.Uint32
}

func (a *mapArena[V]) alloc(v V) core.Value {
	sh := uint64(a.next.Add(1)) % arenaShards
	s := &a.shards[sh]
	s.mu.Lock()
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.slots) >= 1<<arenaSlotBits {
			s.mu.Unlock()
			panic("ascylib: value arena shard exhausted")
		}
		idx = uint32(len(s.slots))
		s.slots = append(s.slots, arenaSlot[V]{})
	}
	s.slots[idx].val = v
	gen := s.slots[idx].gen
	s.mu.Unlock()
	return core.Value(uint64(gen)<<arenaGenSh | sh<<arenaShardSh | uint64(idx))
}

func (a *mapArena[V]) locate(w core.Value) (*arenaShard[V], uint32, uint32) {
	sh := (uint64(w) >> arenaShardSh) & (arenaShards - 1)
	idx := uint32(uint64(w) & (1<<arenaSlotBits - 1))
	gen := uint32(uint64(w) >> arenaGenSh)
	return &a.shards[sh], idx, gen
}

func (a *mapArena[V]) get(w core.Value) (V, bool) {
	s, idx, gen := a.locate(w)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(idx) >= len(s.slots) || s.slots[idx].gen != gen {
		var zero V
		return zero, false
	}
	return s.slots[idx].val, true
}

// set overwrites a slot the caller owns (allocated, not yet published).
func (a *mapArena[V]) set(w core.Value, v V) {
	s, idx, _ := a.locate(w)
	s.mu.Lock()
	s.slots[idx].val = v
	s.mu.Unlock()
}

func (a *mapArena[V]) free(w core.Value) {
	s, idx, gen := a.locate(w)
	s.mu.Lock()
	if int(idx) < len(s.slots) && s.slots[idx].gen == gen {
		var zero V
		s.slots[idx].gen++ // invalidate outstanding handles
		s.slots[idx].val = zero
		s.free = append(s.free, idx)
	}
	s.mu.Unlock()
}
