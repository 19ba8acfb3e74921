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
	// the block is carved from its shard's SSMEM buffer pool, in memory
	// mapped outside the Go heap, and recycled for another value once no
	// pinned reader can still hold it; read it only under the Pin that
	// produced it, or via a copy. A read after Unpin may see another
	// item's bytes, but the memory stays mapped while the store serves.
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
// the response writer without copying. The pools carve their blocks from
// chunks mapped outside the Go heap, which the GC neither scans nor counts
// towards its heap goal, and never unmap them while the store can be
// served: only release, on a store never served, gives them back. Callers
// bracket work with Pin/Unpin — one pin per request in the server's loop.
// Which block a write frees is decided once, by Pin.settle, from the
// transition the write's update function recorded in a txn, and by CAS
// token: each stored item carries a unique token, so the token says which
// block the committed item holds.
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
	reaping []shardFlag
	// dirty[sh] is set by every committed mutation of shard sh (settle) and
	// by FlushAll, and cleared by the snapshot walk of sh just before it
	// starts: a clean shard holds what the last snapshot wrote of it.
	// Padded, and written only when it changes, so a steady stream of
	// writes reads the line and never bounces it between cores.
	dirty []shardFlag
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

// shardFlag is a cache-line-isolated per-shard flag.
type shardFlag struct {
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
		reaping: make([]shardFlag, shards),
		dirty:   make([]shardFlag, shards),
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

// release unmaps the memory of every value block the store holds. Only a
// store that was never served may be released: afterwards every Item.Data
// it holds points at unmapped memory.
func (s *Store) release() {
	for _, p := range s.bufs {
		p.Release()
	}
}

// pinFrame carries one Pin's per-shard allocator leases; frames are pooled
// so the request loop never allocates one. touched lists the shards holding
// a lease, so Unpin's cost scales with the shards a request used, not with
// the store's shard count.
type pinFrame struct {
	as      []*ssmem.BufAllocator // indexed by shard; nil until the shard is touched
	touched []int
	// sink receives GetBatch's value-block touches: a store the compiler
	// cannot drop, to a line no other goroutine writes.
	sink byte
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

// txn records the transition a write's update function chose: old
// (present) → next (keep), with next named by its CAS token. Every
// invocation of the function ends in to, which overwrites the record, so
// once the update returns it holds the invocation that took effect.
type txn struct {
	old           Item
	cas           uint64 // next's token
	present, keep bool
}

// to records a transition and returns it as the update function's result.
// It stores fields one by one: a composite literal would zero and copy a
// temporary on every invocation.
func (t *txn) to(old Item, present bool, next Item, keep bool) (Item, bool) {
	t.old, t.cas, t.present, t.keep = old, next.CAS, present, keep
	return next, keep
}

// stored reports whether the committed item is it. CAS tokens are unique
// per stored item, so the token names the item, and with it its block.
func (t *txn) stored(it Item) bool { return t.keep && t.cas == it.CAS }

// changed reports whether the write changed its key: it stored a new item
// or removed the old one.
func (t *txn) changed() bool { return t.keep != t.present || (t.keep && t.cas != t.old.CAS) }

// settle is the one place a write frees value blocks, and the one place a
// committed change marks its shard dirty. It retires the old item's block
// unless the old item is what the write committed, and frees fresh's block
// — built for the write, published only if committed — unless the
// committed item is fresh. Writes that build no item pass Item{}; a nil
// block is never freed.
func (p Pin) settle(sh int, t *txn, fresh Item) {
	if t.changed() {
		p.s.markDirty(sh)
	}
	if p.s.bufs == nil {
		return // without pooling the Go GC owns every block
	}
	a := p.enter(sh)
	if t.present && !t.stored(t.old) {
		a.Free(t.old.Data)
	}
	if !t.stored(fresh) {
		a.Free(fresh.Data)
	}
}

// markDirty flags shard sh as changed since its last snapshot walk. The
// load comes first, so only the first write after a walk stores.
func (s *Store) markDirty(sh int) {
	if f := &s.dirty[sh].flag; !f.Load() {
		f.Store(true)
	}
}

// markAllDirty flags every shard as changed since its last snapshot walk.
func (s *Store) markAllDirty() {
	for sh := range s.dirty {
		s.markDirty(sh)
	}
}

// markClean flags every shard as unchanged: the caller knows the store
// holds exactly what the file it last read or wrote holds.
func (s *Store) markClean() {
	for sh := range s.dirty {
		s.dirty[sh].flag.Store(false)
	}
}

// clean reports whether no shard has changed since its last snapshot walk.
func (s *Store) clean() bool {
	for sh := range s.dirty {
		if s.dirty[sh].flag.Load() {
			return false
		}
	}
	return true
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

// getChunk is how many keys GetBatch routes and stages at a time. Its
// tables live on the stack, so a batch of any length allocates nothing and
// holds no memory past the call.
const getChunk = 16

// GetBatch looks up every keys[i] under one pin and one clock read, as one
// staged lookup: each chunk of getChunk keys is routed (entering each key's
// shard epoch; enter is idempotent), read by
// ShardedStringMap.GetManyBytesHashed, whose stages overlap the keys' cache
// misses, then checked for liveness. fn is invoked once per key, in request
// order. Item Data blocks obey the usual pin contract: valid until p
// unpins. Dead items are reaped opportunistically, exactly as Get does. A
// single key is served by Get.
//
// The answers are those of calling Get on each key in turn under p: each
// key is read at its slot load (or its core miss), which lies inside the
// caller's pin, and the caller issues no write between the keys of one
// call. The server hands GetBatch every maximal run of get/gets commands in
// a pipelined batch, so no write from the same connection falls between
// two reads it stages together.
func (s *Store) GetBatch(p Pin, keys [][]byte, fn func(i int, it Item, ok bool)) {
	switch len(keys) {
	case 0:
		return
	case 1:
		it, ok := s.Get(p, keys[0])
		fn(0, it, ok)
		return
	}
	var (
		shards [getChunk]int32
		hashes [getChunk]uint64
		items  [getChunk]Item
		hits   [getChunk]bool
	)
	for lo := 0; lo < len(keys); lo += getChunk {
		chunk := keys[lo:min(lo+getChunk, len(keys))]
		for i, k := range chunk {
			sh, h := s.sm.RouteBytes(k)
			p.enter(sh)
			shards[i], hashes[i] = int32(sh), h
		}
		n := len(chunk)
		s.sm.GetManyBytesHashed(shards[:n], hashes[:n], chunk, items[:n], hits[:n])
		// One more stage: touch every hit's value block, so those misses
		// overlap too instead of landing one by one in fn's copies.
		var t byte
		for i := 0; i < n; i++ {
			if hits[i] && len(items[i].Data) > 0 {
				t ^= items[i].Data[0]
			}
		}
		p.f.sink = t
		for i, k := range chunk {
			it, ok := items[i], hits[i]
			if ok && !s.live(it, p.now) {
				s.reapDead(p, int(shards[i]), hashes[i], k, it.CAS)
				it, ok = Item{}, false
			}
			fn(lo+i, it, ok)
		}
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
	var t txn
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		// Superseded or resurrected: keep.
		return t.to(old, present, old, present && (old.CAS != cas || s.live(old, p.now)))
	})
	p.settle(sh, &t, Item{})
}

// Set unconditionally stores the value and returns its CAS token.
func (s *Store) Set(p Pin, key []byte, flags uint32, exptime int64, data []byte) uint64 {
	sh, h := s.sm.RouteBytes(key)
	it := s.newItem(p, sh, flags, exptime, data)
	var t txn
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		return t.to(old, present, it, true)
	})
	p.settle(sh, &t, it)
	return it.CAS
}

// Add stores the value only if the key holds no live item.
func (s *Store) Add(p Pin, key []byte, flags uint32, exptime int64, data []byte) bool {
	sh, h := s.sm.RouteBytes(key)
	it := s.newItem(p, sh, flags, exptime, data)
	var t txn
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		if present && s.live(old, p.now) {
			return t.to(old, present, old, true)
		}
		return t.to(old, present, it, true) // absent, or over a corpse
	})
	p.settle(sh, &t, it)
	return t.stored(it)
}

// Replace stores the value only if the key holds a live item.
func (s *Store) Replace(p Pin, key []byte, flags uint32, exptime int64, data []byte) bool {
	sh, h := s.sm.RouteBytes(key)
	it := s.newItem(p, sh, flags, exptime, data)
	var t txn
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		if present && s.live(old, p.now) {
			return t.to(old, present, it, true)
		}
		return t.to(old, present, old, false) // absent, or purge the corpse
	})
	p.settle(sh, &t, it)
	return t.stored(it)
}

// CompareAndSwap stores the value only if the key's live item still carries
// the token casid.
func (s *Store) CompareAndSwap(p Pin, key []byte, flags uint32, exptime int64, data []byte, casid uint64) CasStatus {
	sh, h := s.sm.RouteBytes(key)
	it := s.newItem(p, sh, flags, exptime, data)
	var t txn
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		switch {
		case !present || !s.live(old, p.now):
			return t.to(old, present, old, false) // absent, or purge the corpse
		case old.CAS != casid:
			return t.to(old, present, old, true)
		}
		return t.to(old, present, it, true)
	})
	p.settle(sh, &t, it)
	switch {
	case t.stored(it):
		return CasStored
	case t.keep:
		return CasExists
	}
	return CasNotFound
}

// Delete removes the key's live item and reports whether one was removed.
func (s *Store) Delete(p Pin, key []byte) bool {
	sh, h := s.sm.RouteBytes(key)
	p.enter(sh)
	var t txn
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		return t.to(old, present, old, false)
	})
	p.settle(sh, &t, Item{})
	return t.present && s.live(t.old, p.now)
}

// IncrDecr atomically adjusts the decimal value under key by delta (incr
// wraps at 2^64, decr floors at 0, as memcached specifies) and returns the
// new value. The stored value must be an ASCII decimal uint64.
func (s *Store) IncrDecr(p Pin, key []byte, delta uint64, incr bool) (uint64, IncrStatus) {
	sh, h := s.sm.RouteBytes(key)
	p.enter(sh)
	cas := s.nextCAS()
	var newVal uint64
	var staged []byte // pooled block reused across speculative invocations
	var digits [20]byte
	var t txn
	s.sm.UpdateBytesHashed(sh, h, key, func(old Item, present bool) (Item, bool) {
		if !present || !s.live(old, p.now) {
			return t.to(old, present, old, false) // absent, or purge the corpse
		}
		cur, ok := parseU64(old.Data)
		if !ok {
			return t.to(old, present, old, true)
		}
		if incr {
			newVal = cur + delta
		} else if cur < delta {
			newVal = 0
		} else {
			newVal = cur - delta
		}
		out := strconv.AppendUint(digits[:0], newVal, 10)
		if cap(staged) < len(out) {
			staged = p.alloc(sh, out)
		} else {
			staged = staged[:len(out)]
			copy(staged, out)
		}
		next := old
		next.Data, next.CAS = staged, cas
		return t.to(old, present, next, true)
	})
	fresh := Item{Data: staged, CAS: cas}
	p.settle(sh, &t, fresh)
	switch {
	case t.stored(fresh):
		return newVal, IncrOK
	case t.keep:
		return newVal, IncrNonNumeric
	}
	return newVal, IncrNotFound
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
	// After the epoch is published: a snapshot walk that reads the old
	// epoch and clears its flag is followed by this store, and one that
	// reads a future epoch leaves its flag set.
	s.markAllDirty()
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
		var t txn
		s.sm.Update(k, func(old Item, present bool) (Item, bool) {
			return t.to(old, present, old, present && s.live(old, p.now))
		})
		p.settle(sh, &t, Item{})
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
// opening each shard's epoch exactly once — and needs no merge. Item Data
// blocks obey the pin contract: valid until p unpins (the epochs of every
// shard the scan entered stay open until then). A nil hi means no upper
// bound.
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
