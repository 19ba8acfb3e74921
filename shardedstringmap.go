package ascylib

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/ssmem"
)

// ShardedStringMap is the library's string-keyed map: a concurrent map from
// string keys to an arbitrary value type V, hash-partitioned across S fully
// independent shards, backed by any registered algorithm. It is the layer
// the memcached-protocol server runs on, and the library's one in-process
// router (S = 1 is the unsharded case). Every shard is a Map with its own
// backing structure, its own slot table, and (for ht-urcu-ssmem) its own
// SSMEM recycling domain, so shards share no synchronization whatsoever.
// The point, per the paper's Figure 2 story: hash tables scale because they
// are already sharded; this applies the same decomposition one level up, so
// the list, skip-list, and BST families can serve heavy multi-core traffic
// too.
//
// Keys are carried onto a shard's 64-bit core by hashing (FNV-1a) and
// chaining: each core entry is a Map entry, the head of an immutable chain
// of the (key, value) pairs whose keys collide on the hash. A read walks the
// chain with no lock and no store; a write republishes the chain through
// Map.publish, so per-key operations are atomic on every algorithm and an
// overwritten key is never briefly absent. With a 64-bit hash, chains are
// almost always a single element.
//
// Routing scrambles the same FNV-1a hash through an xorshift-multiply
// finalizer and range-reduces its top bits (multiply-shift). The finalizer
// matters: FNV's high-order bits are poorly mixed for short patterned keys
// (a raw top-bit split leaves shards starved), and the scrambled route is
// decorrelated from the low hash bits the power-of-two hash tables mask for
// their bucket index — so sharding a CLHT never collapses a shard's keys
// onto a fraction of its buckets.
//
// What aggregates and what does not: per-key operations route to exactly one
// shard; Len and RecycleStats sum across shards; ForEach enumerates shard by
// shard (no cross-shard snapshot), and ShardSnapshot takes one shard's
// consistent cut. In hash mode there is no Range — hashing destroys order.
//
// The ordered mode (NewOrderedShardedStringMap) changes both halves:
// shards are keyed by the big-endian 8-byte prefix with sorted collision
// chains (see prefixHash), and routing range-reduces the raw prefix WITHOUT
// the finalizer — multiply-shift over a monotone input splits the keyspace
// on prefix boundaries, so shard i holds a contiguous key range and shard
// ranges ascend with i. A scan walks the shards covering [lo, hi] in index
// order and needs no cross-shard merge; per-key operations still route to
// exactly one shard.
type ShardedStringMap[V any] struct {
	shards []*Map[uint64, chainNode[V]]

	// ordered selects range-partitioned routing over order-preserving
	// shards: keys are carried onto the core by their big-endian 8-byte
	// prefix instead of FNV-1a, and collision chains (keys sharing a
	// prefix) are kept lexicographically sorted, so the core's Range
	// enumerates true string order (see NewOrderedShardedStringMap).
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

// MaxShards bounds the shard count of a ShardedStringMap: far above any
// useful core count, low enough that a typo cannot allocate millions of
// structures.
const MaxShards = 1 << 10

// NewShardedStringMap builds a string-keyed map of nshards independent
// shards on the named algorithm. The hash tables ("ht-clht-lb",
// "ht-clht-lf") are the natural backends; any registered algorithm works.
// nshards < 1 is treated as 1; counts above MaxShards are rejected. opts
// apply to every shard, except that Capacity is interpreted as a total and
// split evenly (floored at 1 bucket per shard).
func NewShardedStringMap[V any](algo string, nshards int, opts ...Option) (*ShardedStringMap[V], error) {
	if nshards < 1 {
		nshards = 1
	}
	if nshards > MaxShards {
		return nil, fmt.Errorf("ascylib: shard count %d exceeds the maximum of %d", nshards, MaxShards)
	}
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	per := cfg.Buckets / nshards
	if per < 1 {
		per = 1
	}
	shardOpts := make([]Option, 0, len(opts)+1)
	shardOpts = append(shardOpts, opts...)
	shardOpts = append(shardOpts, Capacity(per))
	s := &ShardedStringMap[V]{shards: make([]*Map[uint64, chainNode[V]], nshards)}
	for i := range s.shards {
		m, err := NewMap[uint64, chainNode[V]](algo, shardOpts...)
		if err != nil {
			return nil, err
		}
		s.shards[i] = m
	}
	return s, nil
}

// NewOrderedShardedStringMap builds the range-partitioned variant: every
// shard is order-preserving (8-byte-prefix keying, sorted chains) and
// routing splits the keyspace on prefix boundaries, so cross-shard
// enumeration in shard-index order is global lexicographic order.
// Everything else (capacity split, shard bounds, options) matches
// NewShardedStringMap; nshards = 1 is the unsharded ordered map.
//
// The trade: keys are placed by structure, not scattered by hash. Real key
// distributions are not uniform over their first 8 bytes, so range
// partitioning can load shards unevenly where hash routing would not, and
// on a hash-table backend clustered prefixes cluster buckets. That is the
// price of scans that touch only the shards a range covers and walk each
// one in order; ordered structures (skip lists, BSTs, lists) serve those
// walks natively, the hash tables through snapshot-and-sort.
func NewOrderedShardedStringMap[V any](algo string, nshards int, opts ...Option) (*ShardedStringMap[V], error) {
	s, err := NewShardedStringMap[V](algo, nshards, opts...)
	if err != nil {
		return nil, err
	}
	s.ordered = true
	return s, nil
}

// MustNewShardedStringMap is NewShardedStringMap, panicking on error.
func MustNewShardedStringMap[V any](algo string, nshards int, opts ...Option) *ShardedStringMap[V] {
	s, err := NewShardedStringMap[V](algo, nshards, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumShards returns the shard count.
func (s *ShardedStringMap[V]) NumShards() int { return len(s.shards) }

// strHash maps a key onto the core's usable key domain (FNV-1a 64, folded
// away from the two reserved top values). Generic over string and []byte so
// the wire-facing byte paths hash without materializing a string.
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

// HashBytes returns the key hash GetBytesHashed expects — one hash
// computation shared between routing, grouping, and lookup.
func HashBytes(k []byte) uint64 { return strHash(k) }

// HashString is HashBytes for a string key: the same FNV-1a hash every
// string-keyed layer (collision chains, shard routing) derives its
// placement from, so a key routes identically whether it arrives as a
// string or as bytes off the wire.
func HashString(k string) uint64 { return strHash(k) }

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

// getChain is the read path: look up the collision chain under the
// precomputed hash h in shard m and scan it for k. Every read reaches it
// with a single hash computation that both routed and keys the core.
func getChain[K ~string | ~[]byte, V any](m *Map[uint64, chainNode[V]], h uint64, k K) (V, bool) {
	for c := m.lookup(h); c != nil; c = c.next {
		if eqKey(c.key, k) {
			return c.val, true
		}
	}
	var zero V
	return zero, false
}

// updateChain is the read-modify-write over a collision chain in shard m,
// generic over string and []byte keys, under a precomputed hash (see
// getChain). The rebuilt chain replaces k's node, or drops it, or splices a
// fresh node in (at the head, or at its sorted position when ordered). The
// key is converted to a string only when a fresh node is made —
// steady-state mutations of existing keys never materialize one.
func updateChain[K ~string | ~[]byte, V any](m *Map[uint64, chainNode[V]], ordered bool, h uint64, k K, f func(old V, present bool) (V, bool)) (V, bool) {
	var out V
	var present bool
	m.publish(h, func(head *chainNode[V]) (*chainNode[V], bool) {
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
			for ordered && at != nil && cmpKey(at.key, k) < 0 {
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

// shardFromHash range-reduces a key hash onto the shard index. Hash mode
// applies an xorshift-multiply finalizer first (FNV's raw top bits are too
// weak to route on; see the type comment) then multiply-shift over the
// shard count. Ordered mode skips the finalizer: the input is an
// order-preserving prefix, and multiply-shift alone — floor(h·n / 2^64) —
// is monotone in h, which is exactly what makes the shards contiguous key
// ranges.
func (s *ShardedStringMap[V]) shardFromHash(h uint64) int {
	if !s.ordered {
		h ^= h >> 33
		h *= 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	hi, _ := bits.Mul64(h, uint64(len(s.shards)))
	return int(hi)
}

// shardKeyHash hashes k under the map's keying mode; every routing and
// per-key path below derives both the shard and the core key from this one
// computation.
func shardKeyHash[K ~string | ~[]byte, V any](s *ShardedStringMap[V], k K) uint64 {
	if s.ordered {
		return prefixHash(k)
	}
	return strHash(k)
}

// shardOf routes k: its shard and the core key it has there.
func shardOf[K ~string | ~[]byte, V any](s *ShardedStringMap[V], k K) (*Map[uint64, chainNode[V]], uint64) {
	h := shardKeyHash(s, k)
	return s.shards[s.shardFromHash(h)], h
}

// Ordered reports whether the map routes in range-partitioned ordered mode.
func (s *ShardedStringMap[V]) Ordered() bool { return s.ordered }

// RouteBytes returns the shard index for k together with the key hash that
// produced it, for callers that need the shard before the operation (the
// server routes per-shard epoch pins this way) without paying a second hash
// or route inside the operation itself: pass both back to GetBytesHashed or
// UpdateBytesHashed.
func (s *ShardedStringMap[V]) RouteBytes(k []byte) (shard int, hash uint64) {
	h := shardKeyHash(s, k)
	return s.shardFromHash(h), h
}

// OrderedShardSpan returns the contiguous shard index span [slo, shi] a
// scan of [lo, hi] must touch, in ascending key order (ordered mode only;
// hash mode has no meaningful span and gets the full range). A nil hi
// means no upper bound. Walking slo..shi and running ShardRangeBytes on
// each yields global lexicographic order with no merge.
func (s *ShardedStringMap[V]) OrderedShardSpan(lo, hi []byte) (slo, shi int) {
	if !s.ordered {
		return 0, len(s.shards) - 1
	}
	slo = 0
	if len(lo) > 0 {
		slo = s.shardFromHash(prefixHash(lo))
	}
	shi = len(s.shards) - 1
	if hi != nil {
		shi = s.shardFromHash(prefixHash(hi))
	}
	return slo, shi
}

// ShardRangeBytes runs a bounded ordered scan over shard sh alone. It yields
// the shard's entries with lo <= key <= hi in ascending lexicographic order,
// stopping after limit entries (limit <= 0 means unbounded), and returns how
// many were yielded. A nil hi means no upper bound; an empty or nil lo
// starts from the smallest key; an inverted range yields nothing. Keys are
// yielded as their stored strings, so the scan allocates nothing per entry.
// Entries inserted or deleted concurrently may or may not be observed;
// every yielded entry was present at some instant during the scan.
//
// Callers (the server's store) bracket each shard's scan in that shard's
// epoch and walk OrderedShardSpan's span in order. Panics in hash mode —
// there is no order to scan.
//
// The scan walks the core's bucket range [prefixHash(lo), prefixHash(hi)]
// in order and filters each sorted chain by the full string bounds: only
// the two boundary buckets can contain out-of-range keys, so the filter is
// almost always a no-op, and the first key past hi ends the scan globally
// (enumeration is sorted).
func (s *ShardedStringMap[V]) ShardRangeBytes(sh int, lo, hi []byte, limit int, fn func(k string, v V) bool) int {
	if !s.ordered {
		panic("ascylib: ShardRangeBytes on a hash-routed ShardedStringMap")
	}
	var plo uint64
	if len(lo) > 0 {
		plo = prefixHash(lo)
	}
	phi := uint64(math.MaxUint64 - 2)
	if hi != nil {
		phi = prefixHash(hi)
	}
	n := 0
	s.shards[sh].Range(plo, phi, func(_ uint64, head chainNode[V]) bool {
		for c := &head; c != nil; c = c.next {
			if len(lo) > 0 && cmpKey(c.key, lo) < 0 {
				continue
			}
			if hi != nil && cmpKey(c.key, hi) > 0 {
				return false
			}
			if limit > 0 && n >= limit {
				return false
			}
			n++
			if !fn(c.key, c.val) {
				return false
			}
		}
		return true
	})
	return n
}

// GetBytesHashed is GetBytes with the route precomputed by RouteBytes; both
// arguments must come from one RouteBytes call over the same key.
func (s *ShardedStringMap[V]) GetBytesHashed(shard int, hash uint64, k []byte) (V, bool) {
	return getChain(s.shards[shard], hash, k)
}

// UpdateBytesHashed is UpdateBytes with the route precomputed by
// RouteBytes; shard and hash must come from one RouteBytes call over the
// same key.
func (s *ShardedStringMap[V]) UpdateBytesHashed(shard int, hash uint64, k []byte, f func(old V, present bool) (V, bool)) (V, bool) {
	return updateChain(s.shards[shard], s.ordered, hash, k, f)
}

// Get returns the value stored under k.
func (s *ShardedStringMap[V]) Get(k string) (V, bool) {
	m, h := shardOf(s, k)
	return getChain(m, h, k)
}

// GetBytes is Get for a []byte key: one hash computation over the slice
// routes and looks up, and chain keys are compared byte-wise, so the read
// path performs no allocation and never materializes a string. It is the
// wire-facing fast path (the server keys every get on bytes still sitting
// in its connection buffer).
func (s *ShardedStringMap[V]) GetBytes(k []byte) (V, bool) {
	m, h := shardOf(s, k)
	return getChain(m, h, k)
}

// Update atomically transforms the entry for k: f receives the current
// value (present reports existence) and returns the new value and whether
// the key should remain present. It returns the value after the update and
// the resulting presence (the removed value with false when the update
// removes the entry). Like Map.Update, f must be pure and must not call
// back into the map: it may be invoked more than once, and only the last
// invocation takes effect.
func (s *ShardedStringMap[V]) Update(k string, f func(old V, present bool) (V, bool)) (V, bool) {
	m, h := shardOf(s, k)
	return updateChain(m, s.ordered, h, k, f)
}

// UpdateBytes is Update for a []byte key. The key is copied into a string
// only if the update inserts a fresh entry; updates and removals of
// existing keys run allocation-free with respect to the key.
func (s *ShardedStringMap[V]) UpdateBytes(k []byte, f func(old V, present bool) (V, bool)) (V, bool) {
	m, h := shardOf(s, k)
	return updateChain(m, s.ordered, h, k, f)
}

// Put stores v under k, replacing any existing value, and reports whether
// the key was fresh.
func (s *ShardedStringMap[V]) Put(k string, v V) bool {
	fresh := false
	s.Update(k, func(_ V, present bool) (V, bool) {
		fresh = !present
		return v, true
	})
	return fresh
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (s *ShardedStringMap[V]) Insert(k string, v V) bool {
	_, inserted := s.GetOrInsert(k, v)
	return inserted
}

// GetOrInsert returns the existing value for k, or stores and returns v.
// A present key is answered by a read alone.
func (s *ShardedStringMap[V]) GetOrInsert(k string, v V) (V, bool) {
	m, h := shardOf(s, k)
	if got, ok := getChain(m, h, k); ok {
		return got, false
	}
	got, inserted := v, false
	updateChain(m, s.ordered, h, k, func(old V, present bool) (V, bool) {
		if present {
			got, inserted = old, false
			return old, true
		}
		got, inserted = v, true
		return v, true
	})
	return got, inserted
}

// Delete removes k, returning the removed value.
func (s *ShardedStringMap[V]) Delete(k string) (V, bool) {
	var had bool
	var got V
	s.Update(k, func(old V, present bool) (V, bool) {
		had, got = present, old
		return old, false
	})
	return got, had
}

// Len counts the entries across all shards. Linear time, quiescent use.
func (s *ShardedStringMap[V]) Len() int {
	n := 0
	s.ForEach(func(string, V) bool { n++; return true })
	return n
}

// ForEach enumerates entries shard by shard, in no particular order, until
// yield returns false. Entries deleted concurrently may be skipped; there is
// no cross-shard snapshot.
func (s *ShardedStringMap[V]) ForEach(yield func(k string, v V) bool) {
	more := true
	for _, m := range s.shards {
		m.ForEach(func(_ uint64, head chainNode[V]) bool {
			more = head.each(yield)
			return more
		})
		if !more {
			return
		}
	}
}

// ShardSnapshot enumerates shard sh's entries through its core's
// consistent-cut traversal (see Map.Snapshot) until yield returns false,
// and reports whether the cut is native. A whole collision chain is one
// immutable entry loaded from its slot at once, so every key in a chain is
// observed at the same instant — a chain can never be half-snapshotted.
// Callers that walk the shards one by one (the server's snapshot writer and
// flush sweep) bracket each walk in that shard's epoch.
func (s *ShardedStringMap[V]) ShardSnapshot(sh int, yield func(k string, v V) bool) (native bool) {
	return s.shards[sh].Snapshot(func(_ uint64, head chainNode[V]) bool { return head.each(yield) })
}

// RecycleStats sums the SSMEM allocator counters of every shard's backing
// structure (zero unless it is ht-urcu-ssmem; see Map.RecycleStats).
func (s *ShardedStringMap[V]) RecycleStats() ssmem.Stats {
	var agg ssmem.Stats
	for _, m := range s.shards {
		agg.Add(m.RecycleStats())
	}
	return agg
}
