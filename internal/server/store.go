package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	ascylib "repro"
	"repro/internal/pad"
	"repro/internal/ssmem"
)

// Item is one stored cache entry.
type Item struct {
	// Flags is the client-opaque word stored with the value.
	Flags uint32
	// Data is the value block. With value pooling (which the server uses)
	// the block lives in an SSMEM buffer pool and is recycled once no
	// pinned reader can still hold it; read it only under the Pin that
	// produced it, or via a copy.
	Data []byte
	// CAS is the item's unique compare-and-swap token, bumped on every
	// successful store.
	CAS uint64
	// ExpireAt is the absolute expiry (unix seconds); 0 means never.
	ExpireAt int64
}

// expired reports whether the item is past its expiry at time now.
func (it Item) expired(now int64) bool {
	return it.ExpireAt != 0 && it.ExpireAt <= now
}

// CasStatus is the outcome of a compare-and-swap store.
type CasStatus int

// Cas outcomes, mapping 1:1 onto the protocol's STORED/EXISTS/NOT_FOUND.
const (
	CasStored CasStatus = iota
	CasExists
	CasNotFound
)

// IncrStatus is the outcome of an incr/decr.
type IncrStatus int

// Incr/decr outcomes.
const (
	IncrOK IncrStatus = iota
	IncrNotFound
	IncrNonNumeric
)

// Store provides memcached item semantics — flags, unique CAS tokens, lazy
// expiry, and atomic arithmetic — over any registered algorithm, through
// ascylib.ShardedStringMap. Every mutation is a single UpdateBytes, so the
// store's atomicity is exactly the facade's: on every structure a mutation
// is atomic against every other and against reads, and overwriting an item
// publishes a new chain through the key's slot without ever making the key
// briefly absent. Keys arrive as []byte straight from the wire
// and are materialized as strings only when a fresh entry is inserted.
//
// Sharding: the keyspace is hash-partitioned across Shards independent
// structure instances, each with its own value-block pool and its own
// expired-item reaper — so a list or tree backend stops serializing every
// request on one hot structure. A Pin opens only the epochs of the shards a
// request actually touches ("pin only the shard you touch"): a single-key
// request costs exactly one epoch bracket regardless of the shard count,
// and a multi-get pays one per distinct shard it reads.
//
// Memory discipline (ASCY4 on the serving path): value blocks are copied
// into the touched shard's SSMEM buffer pool on store and freed back to it
// when a mutation retires them; a freed block is reused only after every
// reader pinned into that shard has unpinned, so a get can hand its Data to
// the response writer without copying. Callers bracket work with Pin/Unpin
// — one pin per request in the server's loop.
//
// Expiry is lazy, as in memcached: expired items are invisible to reads
// and treated as absent by mutations, and are physically removed when a
// mutation next touches their key. Reads also reap: a Get that observes a
// dead item removes it opportunistically (bounded to one reaper per shard
// at a time, never blocking the read), so read-heavy workloads cannot
// accumulate corpses.
type Store struct {
	sm   *ascylib.ShardedStringMap[Item]
	bufs []*ssmem.BufPool // per shard; nil slice: value pooling off
	pins sync.Pool        // *pinFrame, recycled so Pin() is allocation-free
	cas  atomic.Uint64
	now  func() int64
	algo string
	// reaping bounds opportunistic expired-item removal to one goroutine
	// per shard at a time; readers that lose the flag skip, never wait.
	// Padded: the flags are written on the read path of distinct shards.
	reaping []reapFlag
	// reapHook, when non-nil, runs on the reap path after the reaper flag
	// is taken — the test seam for the panic-survival regression test (the
	// real panic sources, like the facade's slot-table exhaustion panic inside
	// UpdateBytes, cannot be triggered deterministically from out here).
	reapHook func()
	// flush_all bookkeeping, the analog of memcached's oldest_live rule
	// with CAS tokens as the store-order clock (tokens are unique and
	// monotonic store-wide, so "existing at flush time" is exact even
	// within one wall-clock second and across shards): at flushAt (unix
	// seconds; 0 = no flush), every item whose CAS token is <= flushCAS
	// dies.
	flushAt  atomic.Int64
	flushCAS atomic.Uint64
}

// reapFlag is a cache-line-isolated per-shard reaper bound.
type reapFlag struct {
	flag atomic.Bool
	_    [pad.CacheLineSize - 1]byte
}

// NewStore builds a store on the named algorithm. capacity sizes the backing
// structures in total across shards (<= 0 picks a service-appropriate
// default of 2^16 hash-table buckets). poolValues enables SSMEM recycling of
// value blocks. shards is the keyspace partition count (< 1 means 1).
// ordered selects the order-preserving keyspace: keys route by their
// big-endian 8-byte prefix (range partitioning across shards) instead of
// the hash, which lights up RangeScan/MinItem/MaxItem — the store-level
// carriers of the wire's mrange/mmin/mmax.
func NewStore(algo string, capacity int, poolValues bool, shards int, ordered bool) (*Store, error) {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	if shards < 1 {
		shards = 1
	}
	var sm *ascylib.ShardedStringMap[Item]
	var err error
	if ordered {
		sm, err = ascylib.NewOrderedShardedStringMap[Item](algo, shards, ascylib.Capacity(capacity))
	} else {
		sm, err = ascylib.NewShardedStringMap[Item](algo, shards, ascylib.Capacity(capacity))
	}
	if err != nil {
		return nil, err
	}
	s := &Store{
		sm:      sm,
		now:     func() int64 { return time.Now().Unix() },
		algo:    algo,
		reaping: make([]reapFlag, shards),
	}
	if poolValues {
		s.bufs = make([]*ssmem.BufPool, shards)
		for i := range s.bufs {
			s.bufs[i] = ssmem.NewBufPool(0)
		}
	}
	s.pins.New = func() any {
		return &pinFrame{
			as:      make([]*ssmem.BufAllocator, shards),
			touched: make([]int, 0, shards),
			counts:  make([]int32, shards),
		}
	}
	return s, nil
}

// Algo returns the backing algorithm's registry name.
func (s *Store) Algo() string { return s.algo }

// Shards returns the keyspace partition count.
func (s *Store) Shards() int { return s.sm.NumShards() }

// BufStats returns the value-block pool counters summed across shards (zero
// when pooling is off).
func (s *Store) BufStats() ssmem.Stats {
	var agg ssmem.Stats
	for _, p := range s.bufs {
		agg.Add(p.Stats())
	}
	return agg
}

// pinFrame carries one Pin's per-shard allocator leases plus the batched-get
// scratch tables; frames are pooled so the request loop never allocates one.
// touched lists the shards holding a lease, so Unpin's cost scales with the
// shards a request used, not with the store's shard count.
type pinFrame struct {
	as      []*ssmem.BufAllocator // indexed by shard; nil until the shard is touched
	touched []int
	// Batched-get scratch (see GetBatch): per-key routes, the shard-grouped
	// index permutation, and the result staging that restores request order.
	// counts is the per-shard counting-sort workspace, sized to the store's
	// shard count at frame construction; the rest grow to the largest batch
	// the frame has served.
	counts []int32
	shOf   []int32
	hashes []uint64
	perm   []int32
	items  []Item
	hits   []bool
}

// ensureBatch sizes the per-key tables for an n-key batch.
func (f *pinFrame) ensureBatch(n int) {
	if cap(f.shOf) < n {
		f.shOf = make([]int32, n)
		f.hashes = make([]uint64, n)
		f.perm = make([]int32, n)
		f.items = make([]Item, n)
		f.hits = make([]bool, n)
	}
	f.shOf = f.shOf[:n]
	f.hashes = f.hashes[:n]
	f.perm = f.perm[:n]
	f.items = f.items[:n]
	f.hits = f.hits[:n]
}

// Pin leases the calling goroutine into the store's epochs, shard by shard
// as they are touched: Item.Data returned by Get stays unrecycled until
// Unpin. Pins are cheap (a pooled frame, plus a pool get and one atomic
// increment per distinct shard touched) and must not be held across
// blocking waits longer than a request's lifetime.
//
// A Pin also fixes the request's clock: s.now() is read once at Pin() and
// every operation under the pin shares that timestamp — expiry checks,
// relative-expiry conversion, and the opportunistic reaper all see one
// instant. The server pins per batch, so a pipelined burst of n commands
// costs one clock read, not n (and within one command, Get → live →
// reapDead no longer re-read the clock either). The staleness bound is the
// pin's lifetime — microseconds on the request path, against one-second
// expiry resolution.
type Pin struct {
	s   *Store
	f   *pinFrame
	now int64
}

// Pin opens an epoch lease and captures the request timestamp. The zero Pin
// is invalid; pins always come from this method.
func (s *Store) Pin() Pin {
	return Pin{s: s, f: s.pins.Get().(*pinFrame), now: s.now()}
}

// Unpin closes the lease: every shard epoch the pin opened ends, and the
// leased allocators and the frame go back to their pools.
func (p Pin) Unpin() {
	if p.f == nil {
		return
	}
	for _, sh := range p.f.touched {
		a := p.f.as[sh]
		a.OpEnd()
		p.s.bufs[sh].Put(a)
		p.f.as[sh] = nil
	}
	p.f.touched = p.f.touched[:0]
	p.s.pins.Put(p.f)
}

// enter opens shard sh's epoch for this pin (idempotent, no-op without
// pooling) and returns its allocator. Every store operation calls it before
// touching the shard: the open epoch is what keeps an Item.Data block —
// including one read inside a speculative update callback — from being
// recycled under the request.
func (p Pin) enter(sh int) *ssmem.BufAllocator {
	if p.s.bufs == nil {
		return nil
	}
	if a := p.f.as[sh]; a != nil {
		return a
	}
	a := p.s.bufs[sh].Get()
	a.OpStart()
	p.f.as[sh] = a
	p.f.touched = append(p.f.touched, sh)
	return a
}

// alloc copies data into a block from shard sh's pool (plain copy without
// pooling).
func (p Pin) alloc(sh int, data []byte) []byte {
	a := p.enter(sh)
	if a == nil {
		if len(data) == 0 {
			return []byte{}
		}
		out := make([]byte, len(data))
		copy(out, data)
		return out
	}
	b := a.Alloc(len(data))
	copy(b, data)
	return b
}

// free returns a retired block to shard sh's pool (no-op without pooling,
// or for nil blocks).
func (p Pin) free(sh int, b []byte) {
	if p.s.bufs == nil || b == nil {
		return
	}
	p.enter(sh).Free(b)
}

// absExpiry converts a protocol exptime to an absolute unix time: 0 never
// expires, negative is already expired, values up to 30 days are relative
// to now, larger values are absolute.
func absExpiry(now, exptime int64) int64 {
	const thirtyDays = 60 * 60 * 24 * 30
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return 1 // the epoch: expired since long ago
	case exptime <= thirtyDays:
		return now + exptime
	default:
		return exptime
	}
}

// nextCAS issues a fresh token. Tokens are unique per store (across every
// shard) and never 0.
func (s *Store) nextCAS() uint64 { return s.cas.Add(1) }

// newItem builds a fresh item whose Data is an owned copy of data in shard
// sh's pool; the pin's timestamp anchors a relative expiry.
func (s *Store) newItem(p Pin, sh int, flags uint32, exptime int64, data []byte) Item {
	return Item{
		Flags:    flags,
		Data:     p.alloc(sh, data),
		CAS:      s.nextCAS(),
		ExpireAt: absExpiry(p.now, exptime),
	}
}

// live reports whether the item is visible at time now: not expired and
// not invalidated by a reached flush_all epoch.
func (s *Store) live(it Item, now int64) bool {
	if it.expired(now) {
		return false
	}
	if fa := s.flushAt.Load(); fa != 0 && now >= fa && it.CAS <= s.flushCAS.Load() {
		return false
	}
	return true
}

// Get returns the live item under key. The Data block is valid while p is
// pinned. A dead item observed here is reaped opportunistically. Liveness is
// judged at the pin's timestamp: one clock read covers the lookup, the
// liveness check, and the reap (which used to each read the clock).
func (s *Store) Get(p Pin, key []byte) (Item, bool) {
	sh, h := s.sm.RouteBytes(key)
	p.enter(sh)
	it, ok := s.sm.GetBytesHashed(sh, h, key)
	if !ok {
		return Item{}, false
	}
	if s.live(it, p.now) {
		return it, true
	}
	s.reapDead(p, sh, h, key, it.CAS)
	return Item{}, false
}

// GetBatch looks up every keys[i] under one pin, one clock read, and one
// epoch enter per distinct shard: all keys are routed first, then grouped by
// shard through a counting-sort index permutation staged in the pooled pin
// frame, and each shard's keys are walked consecutively (the shard's bucket
// lines stay warm across its group). fn is invoked once per key in request
// order — the permutation is only the walk order; the staged items restore
// the response order the protocol requires. Item Data blocks obey the usual
// pin contract: valid until p unpins. Dead items observed on the walk are
// reaped opportunistically, exactly as Get does.
func (s *Store) GetBatch(p Pin, keys [][]byte, fn func(i int, it Item, ok bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	if n == 1 {
		it, ok := s.Get(p, keys[0])
		fn(0, it, ok)
		return
	}
	f := p.f
	f.ensureBatch(n)
	for i := range f.counts {
		f.counts[i] = 0
	}
	for i, k := range keys {
		sh, h := s.sm.RouteBytes(k)
		f.shOf[i] = int32(sh)
		f.hashes[i] = h
		f.counts[sh]++
	}
	// Counting sort: counts become group start offsets, then the keys'
	// indices are scattered into their shard's slot range.
	off := int32(0)
	for sh, c := range f.counts {
		f.counts[sh] = off
		off += c
	}
	for i := 0; i < n; i++ {
		sh := f.shOf[i]
		f.perm[f.counts[sh]] = int32(i)
		f.counts[sh]++
	}
	for j := 0; j < n; j++ {
		i := f.perm[j]
		sh := int(f.shOf[i])
		if j == 0 || sh != int(f.shOf[f.perm[j-1]]) {
			p.enter(sh) // one epoch bracket per shard group
		}
		it, ok := s.sm.GetBytesHashed(sh, f.hashes[i], keys[i])
		if ok && !s.live(it, p.now) {
			s.reapDead(p, sh, f.hashes[i], keys[i], it.CAS)
			it, ok = Item{}, false
		}
		f.items[i], f.hits[i] = it, ok
	}
	for i := 0; i < n; i++ {
		fn(i, f.items[i], f.hits[i])
	}
	// Drop the staged Data references: the frame outlives the pin in the
	// pool, and the blocks would otherwise stay reachable from it until the
	// frame serves another batch this large.
	for i := range f.items {
		f.items[i] = Item{}
	}
}

// reapDead removes the corpse under key if it still carries token cas and
// is still dead — bounded to one reaper per shard at a time so a stampede
// of readers on a hot expired key cannot pile onto the mutation path, and
// non-blocking for everyone who loses the flag. The flag clear is deferred:
// a panic on the reap path (the facade's slot-table exhaustion panic
// surfaces through UpdateBytes, and an injected clock can throw too) must
// not leave the flag stuck and permanently disable reaping for the shard.
func (s *Store) reapDead(p Pin, sh int, h uint64, key []byte, cas uint64) {
	if !s.reaping[sh].flag.CompareAndSwap(false, true) {
		return
	}
	defer s.reaping[sh].flag.Store(false)
	if s.reapHook != nil {
		s.reapHook()
	}
	now := p.now
	var retired []byte
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		retired = nil
		if !present {
			return old, false
		}
		if old.CAS != cas || s.live(old, now) {
			return old, true // superseded or resurrected: keep
		}
		retired = old.Data
		return old, false
	})
	p.free(sh, retired)
}

// Set unconditionally stores the value and returns its CAS token.
func (s *Store) Set(p Pin, key []byte, flags uint32, exptime int64, data []byte) uint64 {
	sh, h := s.sm.RouteBytes(key)
	it := s.newItem(p, sh, flags, exptime, data)
	var retired []byte
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		retired = nil
		if present {
			retired = old.Data
		}
		return it, true
	})
	p.free(sh, retired)
	return it.CAS
}

// Add stores the value only if the key holds no live item.
func (s *Store) Add(p Pin, key []byte, flags uint32, exptime int64, data []byte) bool {
	sh, h := s.sm.RouteBytes(key)
	now := p.now
	it := s.newItem(p, sh, flags, exptime, data)
	stored := false
	var retired []byte
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		retired = nil
		if present && s.live(old, now) {
			stored = false
			return old, true
		}
		if present {
			retired = old.Data // replacing a corpse
		}
		stored = true
		return it, true
	})
	if stored {
		p.free(sh, retired)
	} else {
		p.free(sh, it.Data) // never published
	}
	return stored
}

// Replace stores the value only if the key holds a live item.
func (s *Store) Replace(p Pin, key []byte, flags uint32, exptime int64, data []byte) bool {
	sh, h := s.sm.RouteBytes(key)
	now := p.now
	it := s.newItem(p, sh, flags, exptime, data)
	stored := false
	var retired []byte
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		retired = nil
		if !present {
			stored = false
			return old, false
		}
		retired = old.Data
		if !s.live(old, now) {
			stored = false
			return old, false // purge the corpse
		}
		stored = true
		return it, true
	})
	p.free(sh, retired)
	if !stored {
		p.free(sh, it.Data) // never published
	}
	return stored
}

// CompareAndSwap stores the value only if the key's live item still carries
// the token casid.
func (s *Store) CompareAndSwap(p Pin, key []byte, flags uint32, exptime int64, data []byte, casid uint64) CasStatus {
	sh, h := s.sm.RouteBytes(key)
	now := p.now
	it := s.newItem(p, sh, flags, exptime, data)
	status := CasNotFound
	var retired []byte
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		retired = nil
		if !present {
			status = CasNotFound
			return old, false
		}
		if !s.live(old, now) {
			status = CasNotFound
			retired = old.Data // purge the corpse
			return old, false
		}
		if old.CAS != casid {
			status = CasExists
			return old, true
		}
		status = CasStored
		retired = old.Data
		return it, true
	})
	p.free(sh, retired)
	if status != CasStored {
		p.free(sh, it.Data) // never published
	}
	return status
}

// Delete removes the key's live item and reports whether one was removed.
func (s *Store) Delete(p Pin, key []byte) bool {
	sh, h := s.sm.RouteBytes(key)
	p.enter(sh)
	now := p.now
	deleted := false
	var retired []byte
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		retired = nil
		if present {
			retired = old.Data
		}
		deleted = present && s.live(old, now)
		return old, false
	})
	p.free(sh, retired)
	return deleted
}

// IncrDecr atomically adjusts the decimal value under key by delta (incr
// wraps at 2^64, decr floors at 0, as memcached specifies) and returns the
// new value. The stored value must be an ASCII decimal uint64.
func (s *Store) IncrDecr(p Pin, key []byte, delta uint64, incr bool) (uint64, IncrStatus) {
	sh, h := s.sm.RouteBytes(key)
	p.enter(sh)
	now := p.now
	var newVal uint64
	status := IncrNotFound
	var retired []byte
	var staged []byte // pooled block reused across speculative invocations
	var digits [20]byte
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		retired = nil
		if !present {
			status = IncrNotFound
			return old, false
		}
		if !s.live(old, now) {
			status = IncrNotFound
			retired = old.Data
			return old, false
		}
		cur, ok := parseU64(old.Data)
		if !ok {
			status = IncrNonNumeric
			return old, true
		}
		if incr {
			newVal = cur + delta
		} else if cur < delta {
			newVal = 0
		} else {
			newVal = cur - delta
		}
		status = IncrOK
		out := strconv.AppendUint(digits[:0], newVal, 10)
		if cap(staged) < len(out) {
			staged = p.alloc(sh, out)
		} else {
			staged = staged[:len(out)]
			copy(staged, out)
		}
		next := old
		retired = old.Data
		next.Data = staged
		next.CAS = s.nextCAS()
		return next, true
	})
	p.free(sh, retired)
	if status != IncrOK {
		p.free(sh, staged) // never published
	}
	return newVal, status
}

// FlushAll invalidates every item stored up to now, after delay seconds
// (0 = immediately; negative is clamped to 0 — the wire layer rejects
// negative delays before they get here). Like memcached's oldest_live rule,
// the epoch applies lazily through liveness checks — items stored after the
// call stay live — and an immediate flush additionally sweeps the
// structures, shard by shard, so the memory is released. A later FlushAll
// supersedes a pending one.
//
// The flush epoch anchors at p.now, the same timestamp every other command
// under the pin judges liveness with: a batch that pipelines flush_all
// followed by a get must miss on the flushed item exactly as the serial
// path would, even if the wall clock ticks mid-batch.
func (s *Store) FlushAll(p Pin, delay int64) {
	now := p.now
	if delay < 0 {
		delay = 0
	}
	s.flushCAS.Store(s.cas.Load())
	s.flushAt.Store(now + delay)
	if delay > 0 {
		return
	}
	// Physically collect what the epoch just killed, one shard at a time,
	// under one pin per shard — holding earlier shards' epochs open across
	// the whole sweep would stall their block reclamation, exactly the
	// cross-shard coupling the per-shard pools exist to avoid. Not atomic:
	// items stored while the sweep runs are (correctly) kept.
	for sh := 0; sh < s.sm.NumShards(); sh++ {
		s.flushShard(sh)
	}
}

// flushShard collects shard sh's epoch-killed items under a shard-local pin,
// judging liveness at that pin's single timestamp (one clock per pin, as
// everywhere).
func (s *Store) flushShard(sh int) {
	p := s.Pin()
	defer p.Unpin()
	p.enter(sh)
	var keys []string
	s.sm.ShardSnapshot(sh, func(k string, it Item) bool {
		if !s.live(it, p.now) {
			keys = append(keys, k)
		}
		return true
	})
	for _, k := range keys {
		var retired []byte
		s.sm.Update(k, func(old Item, present bool) (Item, bool) {
			retired = nil
			keep := present && s.live(old, p.now)
			if present && !keep {
				retired = old.Data
			}
			return old, keep
		})
		p.free(sh, retired)
	}
}

// Items counts stored entries (including not-yet-collected expired ones)
// across all shards; linear time, quiescent use.
func (s *Store) Items() int { return s.sm.Len() }

// Ordered reports whether the store carries the order-preserving keyspace
// (built with ordered = true): RangeScan, MinItem, and MaxItem only work
// there. The server refuses mrange/mmin/mmax on unordered stores with a
// recoverable error, so the capability is part of the wire contract.
func (s *Store) Ordered() bool { return s.sm.Ordered() }

// RangeScan yields the live items with lo <= key <= hi in ascending
// lexicographic order, at most limit of them (limit <= 0 means unbounded),
// and returns how many were yielded. Shards are range partitions in
// ordered mode, so the scan walks the covering shards in index order —
// opening each shard's epoch exactly once, mirroring GetBatch's
// shard-grouped bracketing — and needs no merge. Item Data blocks obey the
// pin contract: valid until p unpins (the epochs of every shard the scan
// entered stay open until then). A nil hi means no upper bound.
//
// Dead items (expired, or killed by a flush epoch) are skipped without
// counting against limit and without reaping: a scan is a read of many
// keys, and turning it into a mutation storm on a corpse-heavy range would
// break its bounded cost. The per-key reaper on the Get path stays the
// collector.
func (s *Store) RangeScan(p Pin, lo, hi []byte, limit int, fn func(key string, it Item) bool) int {
	slo, shi := s.sm.OrderedShardSpan(lo, hi)
	n := 0
	for sh := slo; sh <= shi; sh++ {
		p.enter(sh)
		stop := false
		s.sm.ShardRangeBytes(sh, lo, hi, 0, func(k string, it Item) bool {
			if !s.live(it, p.now) {
				return true
			}
			if limit > 0 && n >= limit {
				stop = true
				return false
			}
			n++
			if !fn(k, it) {
				stop = true
				return false
			}
			return true
		})
		if stop || (limit > 0 && n >= limit) {
			break
		}
	}
	return n
}

// MinItem returns the live item under the smallest key (ordered stores
// only). It walks shards in ascending range order and stops at the first
// live item; dead items are skipped, not reaped, as in RangeScan.
func (s *Store) MinItem(p Pin) (string, Item, bool) {
	var (
		key   string
		item  Item
		found bool
	)
	for sh := 0; sh < s.sm.NumShards() && !found; sh++ {
		p.enter(sh)
		s.sm.ShardRangeBytes(sh, nil, nil, 0, func(k string, it Item) bool {
			if !s.live(it, p.now) {
				return true
			}
			key, item, found = k, it, true
			return false
		})
	}
	return key, item, found
}

// MaxItem returns the live item under the largest key (ordered stores
// only). Shards are walked in descending range order; within a shard the
// structures only enumerate ascending, so the shard is scanned forward
// keeping its last live item — O(shard) for the highest populated shard,
// which a rare mmax amortizes fine.
func (s *Store) MaxItem(p Pin) (string, Item, bool) {
	for sh := s.sm.NumShards() - 1; sh >= 0; sh-- {
		p.enter(sh)
		var (
			key   string
			item  Item
			found bool
		)
		s.sm.ShardRangeBytes(sh, nil, nil, 0, func(k string, it Item) bool {
			if s.live(it, p.now) {
				key, item, found = k, it, true
			}
			return true
		})
		if found {
			return key, item, true
		}
	}
	return "", Item{}, false
}
