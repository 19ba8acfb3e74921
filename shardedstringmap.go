package ascylib

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/ssmem"
)

// ShardedStringMap hash-partitions a string keyspace across S fully
// independent StringMap instances — the sharding layer the server runs on,
// and the library's one in-process router (S = 1 is the unsharded case).
// Every shard is a complete StringMap with its own backing structure, its
// own value arena, and (with RecycleNodes) its own SSMEM recycling domain,
// so shards share no synchronization whatsoever. The point, per the paper's
// Figure 2 story: hash tables scale because they are already sharded; this
// applies the same decomposition one level up, so the list, skip-list, and
// BST families can serve heavy multi-core traffic too.
//
// Routing scrambles the same FNV-1a hash StringMap keys the core with
// through an xorshift-multiply finalizer and range-reduces its top bits
// (multiply-shift). The finalizer matters: FNV's high-order bits are poorly
// mixed for short patterned keys (a raw top-bit split leaves shards starved),
// and the scrambled route is decorrelated from the low hash bits the
// power-of-two hash tables mask for their bucket index — so sharding a CLHT
// never collapses a shard's keys onto a fraction of its buckets.
//
// What aggregates and what does not: per-key operations route to exactly one
// shard and keep StringMap's semantics unchanged; Len and RecycleStats sum
// across shards; ForEach enumerates shard by shard (no cross-shard
// snapshot). In hash mode there is no Range — hashing already destroyed
// order at the StringMap layer, and sharding does not change that.
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
	shards []*StringMap[V]

	// ordered selects range-partitioned routing over order-preserving
	// shards (see NewOrderedShardedStringMap).
	ordered bool
}

// MaxShards bounds the shard count of a ShardedStringMap: far above any
// useful core count, low enough that a typo cannot allocate millions of
// structures.
const MaxShards = 1 << 10

// NewShardedStringMap builds nshards independent StringMaps on the named
// algorithm. nshards < 1 is treated as 1; counts above MaxShards are
// rejected. opts apply to every shard, except that Capacity is interpreted
// as a total and split evenly (floored at 1 bucket per shard).
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
	s := &ShardedStringMap[V]{shards: make([]*StringMap[V], nshards)}
	for i := range s.shards {
		m, err := NewStringMap[V](algo, shardOpts...)
		if err != nil {
			return nil, err
		}
		s.shards[i] = m
	}
	return s, nil
}

// NewOrderedShardedStringMap builds the range-partitioned variant: every
// shard is an order-preserving StringMap (8-byte-prefix keying, sorted
// chains) and routing splits the keyspace on prefix boundaries, so
// cross-shard enumeration in shard-index order is global lexicographic
// order. Everything else (capacity split, shard bounds, options) matches
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
	for _, m := range s.shards {
		m.ordered = true
	}
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

// Shard returns shard i — for callers (like the server's per-shard flush
// sweep) that iterate the shards directly. Mutating through a shard is
// legal: it is the same instance the router targets.
func (s *ShardedStringMap[V]) Shard(i int) *StringMap[V] { return s.shards[i] }

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

// shardKeyHash hashes k under the map's keying mode (see StringMap's
// keyHash); every routing and per-key path below derives both the shard
// and the core key from this one computation.
func shardKeyHash[K ~string | ~[]byte, V any](s *ShardedStringMap[V], k K) uint64 {
	if s.ordered {
		return prefixHash(k)
	}
	return strHash(k)
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
func (s *ShardedStringMap[V]) ShardRangeBytes(sh int, lo, hi []byte, limit int, fn func(k string, v V) bool) int {
	if !s.ordered {
		panic("ascylib: ShardRangeBytes on a hash-routed ShardedStringMap")
	}
	return rangeBytes(s.shards[sh], lo, hi, limit, fn)
}

// rangeBytes is ShardRangeBytes' body over one ordered StringMap. It walks
// the core's bucket range [prefixHash(lo), prefixHash(hi)] in order and
// filters each sorted chain by the full string bounds: only the two
// boundary buckets can contain out-of-range keys, so the filter is almost
// always a no-op, and the first key past hi ends the scan globally
// (enumeration is sorted).
func rangeBytes[V any](m *StringMap[V], lo, hi []byte, limit int, fn func(k string, v V) bool) int {
	var plo uint64
	if len(lo) > 0 {
		plo = prefixHash(lo)
	}
	phi := uint64(math.MaxUint64 - 2)
	if hi != nil {
		phi = prefixHash(hi)
	}
	n := 0
	m.m.Range(plo, phi, func(_ uint64, chain []strEntry[V]) bool {
		for i := range chain {
			if len(lo) > 0 && cmpKey(chain[i].key, lo) < 0 {
				continue
			}
			if hi != nil && cmpKey(chain[i].key, hi) > 0 {
				return false
			}
			if limit > 0 && n >= limit {
				return false
			}
			n++
			if !fn(chain[i].key, chain[i].val) {
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
	return updateChain(s.shards[shard], hash, k, f)
}

// Get returns the value stored under k.
func (s *ShardedStringMap[V]) Get(k string) (V, bool) {
	h := shardKeyHash(s, k)
	return getChain(s.shards[s.shardFromHash(h)], h, k)
}

// GetBytes is Get for a []byte key; like StringMap.GetBytes it allocates
// nothing — one hash computation routes and looks up.
func (s *ShardedStringMap[V]) GetBytes(k []byte) (V, bool) {
	h := shardKeyHash(s, k)
	return getChain(s.shards[s.shardFromHash(h)], h, k)
}

// Update atomically transforms the entry for k in its shard; the contract
// is StringMap.Update's.
func (s *ShardedStringMap[V]) Update(k string, f func(old V, present bool) (V, bool)) (V, bool) {
	h := shardKeyHash(s, k)
	return updateChain(s.shards[s.shardFromHash(h)], h, k, f)
}

// UpdateBytes is Update for a []byte key.
func (s *ShardedStringMap[V]) UpdateBytes(k []byte, f func(old V, present bool) (V, bool)) (V, bool) {
	h := shardKeyHash(s, k)
	return updateChain(s.shards[s.shardFromHash(h)], h, k, f)
}

// Put stores v under k, replacing any existing value, and reports whether
// the key was fresh. Like every per-key operation here it hashes once,
// routing and operating on the same hash through the chain helpers shared
// with StringMap.
func (s *ShardedStringMap[V]) Put(k string, v V) bool {
	h := shardKeyHash(s, k)
	return putChain(s.shards[s.shardFromHash(h)], h, k, v)
}

// Insert adds (k, v) if k is absent and reports whether it did.
func (s *ShardedStringMap[V]) Insert(k string, v V) bool {
	h := shardKeyHash(s, k)
	return insertChain(s.shards[s.shardFromHash(h)], h, k, v)
}

// GetOrInsert returns the existing value for k, or stores and returns v.
func (s *ShardedStringMap[V]) GetOrInsert(k string, v V) (V, bool) {
	h := shardKeyHash(s, k)
	return getOrInsertChain(s.shards[s.shardFromHash(h)], h, k, v)
}

// Delete removes k, returning the removed value.
func (s *ShardedStringMap[V]) Delete(k string) (V, bool) {
	h := shardKeyHash(s, k)
	return deleteChain(s.shards[s.shardFromHash(h)], h, k)
}

// Len sums the shards' entry counts. Linear time, quiescent use.
func (s *ShardedStringMap[V]) Len() int {
	n := 0
	for _, m := range s.shards {
		n += m.Len()
	}
	return n
}

// ForEach enumerates entries shard by shard, in no particular order, until
// yield returns false. Entries deleted concurrently may be skipped; there is
// no cross-shard snapshot.
func (s *ShardedStringMap[V]) ForEach(yield func(k string, v V) bool) {
	for _, m := range s.shards {
		stopped := false
		m.ForEach(func(k string, v V) bool {
			if !yield(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// RecycleStats sums the SSMEM allocator counters of every shard's backing
// structure (zero without recycling).
func (s *ShardedStringMap[V]) RecycleStats() ssmem.Stats {
	var agg ssmem.Stats
	for _, m := range s.shards {
		agg.Add(m.RecycleStats())
	}
	return agg
}
