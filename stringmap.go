package ascylib

import (
	"math"

	"repro/internal/ssmem"
)

// StringMap is the string-keyed companion of Map: a concurrent map from
// string keys to an arbitrary value type V, backed by any registered
// algorithm. It exists for the wire-facing layers (the memcached-protocol
// server keys by client-supplied strings), and for any caller whose keys do
// not fit an integer type.
//
// Keys are carried onto the 64-bit core by hashing (FNV-1a) and chaining:
// each core entry is a boxed Map entry, the head of an immutable chain of
// the (key, value) pairs whose keys collide on the hash. A read walks the
// chain with no lock and no store; a write republishes the chain through
// Map.publish, so per-key operations are atomic on every algorithm and an
// overwritten key is never briefly absent. With a 64-bit hash, chains are
// almost always a single element.
//
// Because hashing destroys order, StringMap has no Range/Min/Max; ForEach
// enumerates in no particular order. Use Map for ordered typed keys — or
// NewOrderedShardedStringMap, whose shards swap the hash for an
// order-preserving 8-byte prefix encoding so string order survives the trip
// through the core.
type StringMap[V any] struct {
	m *Map[uint64, chainNode[V]]

	// ordered selects the order-preserving keying mode (see
	// NewOrderedShardedStringMap): keys are carried onto the core by their
	// big-endian 8-byte prefix instead of FNV-1a, and collision chains (keys
	// sharing a prefix) are kept lexicographically sorted, so the core's
	// Range enumerates true string order.
	ordered bool
}

// chainNode is one link of a collision chain. A published chain is never
// modified: writers copy the nodes ahead of the one they change and share
// the rest.
type chainNode[V any] struct {
	key  string
	val  V
	next *chainNode[V]
}

// each yields the chain's pairs in order and reports whether yield asked
// for more.
func (c *chainNode[V]) each(yield func(k string, v V) bool) bool {
	for ; c != nil; c = c.next {
		if !yield(c.key, c.val) {
			return false
		}
	}
	return true
}

// splice returns the chain from head with the node at replaced by sub: the
// nodes ahead of at are copied and everything from sub on is shared.
func splice[V any](head, at, sub *chainNode[V]) *chainNode[V] {
	if head == at {
		return sub
	}
	c := *head
	c.next = splice(head.next, at, sub)
	return &c
}

// NewStringMap builds a string-keyed map on the named algorithm. The hash
// tables ("ht-clht-lb", "ht-clht-lf") are the natural backends; any
// registered algorithm works.
func NewStringMap[V any](algo string, opts ...Option) (*StringMap[V], error) {
	m, err := NewMap[uint64, chainNode[V]](algo, opts...)
	if err != nil {
		return nil, err
	}
	return &StringMap[V]{m: m}, nil
}

// MustNewStringMap is NewStringMap, panicking on error.
func MustNewStringMap[V any](algo string, opts ...Option) *StringMap[V] {
	m, err := NewStringMap[V](algo, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// hash maps a key onto the core's usable key domain (FNV-1a 64, folded away
// from the two reserved top values). Generic over string and []byte so the
// wire-facing byte paths hash without materializing a string.
func strHash[K ~string | ~[]byte](k K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime64
	}
	return h % (math.MaxUint64 - 1)
}

// prefixHash is the order-preserving counterpart of strHash: the key's
// first 8 bytes read big-endian (shorter keys are zero-padded on the
// right). It is monotone with respect to lexicographic order — if
// prefixHash(a) < prefixHash(b) then a < b — because the pad byte 0 is <=
// every key byte and validKey-grade keys never contain it. Keys sharing a
// prefix collide onto one core entry, where the chain (kept sorted in
// ordered mode) resolves the tie by full-string comparison. The result is
// clamped below the core's two reserved top keys; the clamp is monotone
// too (everything clamped sorts above everything unclamped, and the
// clamped bucket's chain orders its keys fully).
func prefixHash[K ~string | ~[]byte](k K) uint64 {
	var p uint64
	for i := 0; i < 8; i++ {
		p <<= 8
		if i < len(k) {
			p |= uint64(k[i])
		}
	}
	if p > math.MaxUint64-2 {
		p = math.MaxUint64 - 2
	}
	return p
}

// keyHash routes a key onto the core under the map's keying mode.
func keyHash[K ~string | ~[]byte, V any](m *StringMap[V], k K) uint64 {
	if m.ordered {
		return prefixHash(k)
	}
	return strHash(k)
}

func (m *StringMap[V]) hash(k string) uint64 { return keyHash(m, k) }

// eqKey compares a stored string key with a string or []byte key without
// allocating (the explicit loop sidesteps any conversion).
func eqKey[K ~string | ~[]byte](s string, k K) bool {
	if len(s) != len(k) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != k[i] {
			return false
		}
	}
	return true
}

// cmpKey three-way-compares a stored string key with a string or []byte
// key without allocating, byte-wise (which for these keys is lexicographic
// order): -1 when s < k, 0 when equal, +1 when s > k.
func cmpKey[K ~string | ~[]byte](s string, k K) int {
	n := len(s)
	if len(k) < n {
		n = len(k)
	}
	for i := 0; i < n; i++ {
		if s[i] != k[i] {
			if s[i] < k[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(k):
		return -1
	case len(s) > len(k):
		return 1
	}
	return 0
}

// getChain is the shared read path: look up the collision chain under the
// precomputed hash h and scan it for k. Split from Get/GetBytes so the
// sharded facade can route and look up with a single hash computation.
func getChain[K ~string | ~[]byte, V any](m *StringMap[V], h uint64, k K) (V, bool) {
	for c := m.m.lookup(h); c != nil; c = c.next {
		if eqKey(c.key, k) {
			return c.val, true
		}
	}
	var zero V
	return zero, false
}

// Get returns the value stored under k.
func (m *StringMap[V]) Get(k string) (V, bool) {
	return getChain(m, keyHash(m, k), k)
}

// GetBytes is Get for a []byte key: the hash runs over the slice and chain
// keys are compared byte-wise, so the read path performs no allocation and
// never materializes a string. It is the wire-facing fast path (the server
// keys every get on bytes still sitting in its connection buffer).
func (m *StringMap[V]) GetBytes(k []byte) (V, bool) {
	return getChain(m, keyHash(m, k), k)
}

// GetBytesHashed is GetBytes under a hash the caller already computed (it
// must be strHash of k, e.g. via HashBytes): batch and routing layers hash
// each key exactly once and look up with the same value.
func (m *StringMap[V]) GetBytesHashed(h uint64, k []byte) (V, bool) {
	return getChain(m, h, k)
}

// HashBytes returns the key hash GetBytesHashed expects — one hash
// computation shared between routing, grouping, and lookup.
func HashBytes(k []byte) uint64 { return strHash(k) }

// HashString is HashBytes for a string key: the same FNV-1a hash every
// string-keyed layer (StringMap chains, shard routing) derives its placement
// from, so a key routes identically whether it arrives as a string or as
// bytes off the wire.
func HashString(k string) uint64 { return strHash(k) }

// updateChain is the shared read-modify-write over a collision chain,
// generic over string and []byte keys, under a precomputed hash (see
// getChain). The rebuilt chain replaces k's node, or drops it, or splices a
// fresh node in (at the head, or at its sorted position in ordered mode).
// The key is converted to a string only when a fresh node is made —
// steady-state mutations of existing keys never materialize one.
func updateChain[K ~string | ~[]byte, V any](m *StringMap[V], h uint64, k K, f func(old V, present bool) (V, bool)) (V, bool) {
	var out V
	var present bool
	m.m.publish(h, func(head *chainNode[V]) (*chainNode[V], bool) {
		c := head
		for c != nil && !eqKey(c.key, k) {
			c = c.next
		}
		var old V
		if c != nil {
			old = c.val
		}
		nv, keep := f(old, c != nil)
		switch {
		case keep && c != nil:
			out, present = nv, true
			return splice(head, c, &chainNode[V]{key: c.key, val: nv, next: c.next}), true
		case keep:
			out, present = nv, true
			at := head
			for m.ordered && at != nil && cmpKey(at.key, k) < 0 {
				at = at.next
			}
			return splice(head, at, &chainNode[V]{key: string(k), val: nv, next: at}), true
		case c != nil:
			out, present = old, false
			return splice(head, c, c.next), true
		}
		out, present = old, false // removing an absent key: nothing to write
		return nil, false
	})
	return out, present
}

// Update atomically transforms the entry for k: f receives the current
// value (present reports existence) and returns the new value and whether
// the key should remain present. It returns the value after the update and
// the resulting presence (the removed value with false when the update
// removes the entry). Like Map.Update, f must be pure and must not call
// back into the map: it may be invoked more than once, and only the last
// invocation takes effect.
func (m *StringMap[V]) Update(k string, f func(old V, present bool) (V, bool)) (V, bool) {
	return updateChain(m, keyHash(m, k), k, f)
}

// UpdateBytes is Update for a []byte key. The key is copied into a string
// only if the update inserts a fresh entry; updates and removals of
// existing keys run allocation-free with respect to the key.
func (m *StringMap[V]) UpdateBytes(k []byte, f func(old V, present bool) (V, bool)) (V, bool) {
	return updateChain(m, keyHash(m, k), k, f)
}

// putChain, insertChain, getOrInsertChain, and deleteChain are the shared
// bodies of the derived per-key operations, under a precomputed hash — both
// StringMap and ShardedStringMap (which routes on the same hash first) call
// them, so the semantics exist exactly once.

func putChain[V any](m *StringMap[V], h uint64, k string, v V) bool {
	fresh := false
	updateChain(m, h, k, func(_ V, present bool) (V, bool) {
		fresh = !present
		return v, true
	})
	return fresh
}

func insertChain[V any](m *StringMap[V], h uint64, k string, v V) bool {
	if _, ok := getChain(m, h, k); ok {
		return false
	}
	inserted := false
	updateChain(m, h, k, func(old V, present bool) (V, bool) {
		if present {
			inserted = false
			return old, true
		}
		inserted = true
		return v, true
	})
	return inserted
}

func getOrInsertChain[V any](m *StringMap[V], h uint64, k string, v V) (V, bool) {
	if got, ok := getChain(m, h, k); ok {
		return got, false
	}
	got, inserted := v, false
	updateChain(m, h, k, func(old V, present bool) (V, bool) {
		if present {
			got, inserted = old, false
			return old, true
		}
		got, inserted = v, true
		return v, true
	})
	return got, inserted
}

func deleteChain[V any](m *StringMap[V], h uint64, k string) (V, bool) {
	var had bool
	var got V
	updateChain(m, h, k, func(old V, present bool) (V, bool) {
		had, got = present, old
		return old, false
	})
	return got, had
}

// Put stores v under k, replacing any existing value, and reports whether
// the key was fresh.
func (m *StringMap[V]) Put(k string, v V) bool {
	return putChain(m, keyHash(m, k), k, v)
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (m *StringMap[V]) Insert(k string, v V) bool {
	return insertChain(m, keyHash(m, k), k, v)
}

// GetOrInsert returns the existing value for k, or stores and returns v.
func (m *StringMap[V]) GetOrInsert(k string, v V) (V, bool) {
	return getOrInsertChain(m, keyHash(m, k), k, v)
}

// Delete removes k, returning the removed value.
func (m *StringMap[V]) Delete(k string) (V, bool) {
	return deleteChain(m, keyHash(m, k), k)
}

// Len counts the entries. Like Set.Size: linear time, quiescent use.
func (m *StringMap[V]) Len() int {
	n := 0
	m.ForEach(func(string, V) bool { n++; return true })
	return n
}

// ForEach enumerates entries, in no particular order, until yield returns
// false. Entries deleted concurrently may be skipped.
func (m *StringMap[V]) ForEach(yield func(k string, v V) bool) {
	m.m.ForEach(func(_ uint64, head chainNode[V]) bool { return head.each(yield) })
}

// Snapshot enumerates entries through the core's consistent-cut traversal
// (see Map.Snapshot) and reports whether the cut is native. A whole
// collision chain is one immutable entry loaded from its slot at once, so
// every key in a chain is observed at the same instant — a chain can never
// be half-snapshotted.
func (m *StringMap[V]) Snapshot(yield func(k string, v V) bool) bool {
	return m.m.Snapshot(func(_ uint64, head chainNode[V]) bool { return head.each(yield) })
}

// RecycleStats returns the backing structure's SSMEM allocator counters
// (zero unless it is ht-urcu-ssmem); see Map.RecycleStats.
func (m *StringMap[V]) RecycleStats() ssmem.Stats { return m.m.RecycleStats() }
