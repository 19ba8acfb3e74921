// Package ssmem is a Go port of SSMEM, the paper's epoch-based memory
// allocator with garbage collection (§3).
//
// SSMEM's contract: memory that a thread frees "does not become available
// until a GC pass decides that it is safe to be reused", where safe means no
// other thread can still hold a reference. SSMEM detects this with per-thread
// activity timestamps: each thread bumps its timestamp as it enters and
// leaves data-structure operations, freed memory is stamped with a snapshot
// of all timestamps, and a stamped batch becomes reusable once every thread
// has either advanced past the snapshot or is quiescent. The collector is
// non-blocking — "it is based on per-thread counters that are incremented to
// indicate activity" — and the amount of garbage allowed before a GC pass is
// configurable, exactly as in the paper (512 locations by default, 128 on
// the TLB-constrained Tilera).
//
// In Go the runtime GC already guarantees memory safety, so SSMEM here
// serves the role it plays in the paper's re-engineered urcu hash table
// (ASCY4): recycling nodes without making removals wait for a grace period,
// and bounding garbage — which in Go also means keeping per-operation heap
// allocation (and the GC pressure it induces) off the hot path. The epoch
// protocol is implemented and tested in full: Alloc never returns an object
// while any thread that was active at Free time is still inside the same
// operation.
//
// The protocol is written once, as freeList, and so is the lease pool,
// pool; everything else is a face over those two:
//
//   - Allocator[T] — the paper's per-thread allocator for one node type:
//     one free list of *T.
//   - BufAllocator — the same epochs applied to size-classed []byte blocks,
//     one free list per class; the server recycles Item.Data values with it.
//   - Pool[T] and BufPool — the lease pool over each (the sync.Pool-of-
//     allocators pattern the urcu table introduced): per-goroutine
//     allocators sharing one Collector, with aggregate Stats.
//
// Where the memory lives differs by what it holds. Allocator[T]'s objects
// come from the Go heap: a T may hold pointers the GC must trace. A
// BufAllocator's blocks hold none, so, as SSMEM hands out objects from
// large memory chunks, a fresh block is carved from a chunk mapped outside
// the Go heap (mapChunk), and recycled through the free lists from then
// on. The GC never frees a pooled block, so counting one in its heap goal
// only made it let the heap grow by as much again before its next cycle.
// A BufPool unmaps its chunks only on Release, which its owner calls only
// once no block can be read again (the server: a store it never served).
// Until then a block read after its epoch closed may hold another value's
// bytes, but it is always mapped memory.
package ssmem

import (
	"sync"
	"sync/atomic"

	"repro/internal/pad"
)

// DefaultThreshold is the number of freed objects that accumulate before a
// batch is released for collection — the paper's default of 512 freed
// locations.
const DefaultThreshold = 512

// Collector coordinates the epoch timestamps of all threads that share a
// set of allocators. One Collector per data structure instance.
//
// The registered-thread set is append-only and published through an atomic
// pointer, so the hot-path epoch checks (snapshot on batch release, safe on
// collection) are wait-free reads that never serialize on a mutex;
// registration itself is rare and takes a lock only to order appends.
type Collector struct {
	mu      sync.Mutex // serializes register appends only
	threads atomic.Pointer[[]*threadTS]
}

type threadTS struct {
	ts pad.Padded // atomic; odd = inside an operation, even = quiescent
}

func (t *threadTS) load() uint64 { return atomic.LoadUint64(&t.ts.Value) }
func (t *threadTS) bump()        { atomic.AddUint64(&t.ts.Value, 1) }

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

func (c *Collector) register() *threadTS {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &threadTS{}
	var old []*threadTS
	if p := c.threads.Load(); p != nil {
		old = *p
	}
	// Copy-on-write append: readers hold the old slice, which stays valid.
	next := make([]*threadTS, len(old)+1)
	copy(next, old)
	next[len(old)] = t
	c.threads.Store(&next)
	return t
}

func (c *Collector) loadThreads() []*threadTS {
	if p := c.threads.Load(); p != nil {
		return *p
	}
	return nil
}

// snapshot copies every thread's current timestamp.
func (c *Collector) snapshot() []uint64 {
	ths := c.loadThreads()
	snap := make([]uint64, len(ths))
	for i, t := range ths {
		snap[i] = t.load()
	}
	return snap
}

// safe reports whether a batch stamped with snap can be reused: every thread
// that was inside an operation at stamping time (odd timestamp) has since
// advanced. Threads registered after the stamp cannot hold references to the
// batch (it was already unreachable), so the check covers only the stamped
// prefix.
func (c *Collector) safe(snap []uint64) bool {
	ths := c.loadThreads()
	for i, s := range snap {
		if s%2 == 1 && ths[i].load() == s {
			return false
		}
	}
	return true
}

// Stats reports allocator activity, mirroring ssmem's debug counters.
type Stats struct {
	Allocs    uint64 // objects handed out
	Frees     uint64 // objects passed to Free
	Reused    uint64 // allocations satisfied from reclaimed memory
	Collected uint64 // objects moved from released batches to the free list
	GCPasses  uint64 // collection attempts that reclaimed at least one batch
	Garbage   int64  // objects currently freed but not yet reusable
	Mapped    uint64 // bytes of chunk memory mapped outside the Go heap (BufPool only)
}

// ReuseRate returns the fraction of allocations served from recycled
// memory — the headline number EXPERIMENTS.md reports per structure.
func (s Stats) ReuseRate() float64 {
	if s.Allocs == 0 {
		return 0
	}
	return float64(s.Reused) / float64(s.Allocs)
}

// Add accumulates o into s field by field — the one summation the
// shard-aggregating callers (ShardedStringMap, the server's store) share.
func (s *Stats) Add(o Stats) {
	s.Allocs += o.Allocs
	s.Frees += o.Frees
	s.Reused += o.Reused
	s.Collected += o.Collected
	s.GCPasses += o.GCPasses
	s.Garbage += o.Garbage
	s.Mapped += o.Mapped
}

// counters is the internal, atomically-updated form of Stats. The owning
// goroutine is the only writer, but aggregate Stats() readers (the registry
// probe, the harness) may run concurrently, so loads and stores go through
// sync/atomic.
type counters struct {
	allocs, frees, reused, collected, gcPasses atomic.Uint64
	garbage                                    atomic.Int64
}

func (c *counters) stats() Stats {
	return Stats{
		Allocs:    c.allocs.Load(),
		Frees:     c.frees.Load(),
		Reused:    c.reused.Load(),
		Collected: c.collected.Load(),
		GCPasses:  c.gcPasses.Load(),
		Garbage:   c.garbage.Load(),
	}
}

// owner is the per-goroutine half every allocator shares: its timestamp in
// the collector, its garbage threshold, its lease flag and its counters.
// The free lists it keeps are freeLists that take the owner as an argument,
// so one owner can run any number of them (one per size class).
type owner struct {
	c         *Collector
	ts        *threadTS
	threshold int
	leased    atomic.Bool // claimed by a pool lease (see pool.Get)
	hint      uint32      // the stripe hint of the Get that leased it
	stats     counters
}

func (o *owner) init(c *Collector, threshold int) {
	if threshold < 1 {
		threshold = DefaultThreshold
	}
	o.c, o.ts, o.threshold = c, c.register(), threshold
}

func (o *owner) own() *owner { return o }

// OpStart marks the owning goroutine as inside a data-structure operation.
// Structures integrated with SSMEM call this on operation entry; references
// obtained before OpStart or after OpEnd must not be retained.
func (o *owner) OpStart() { o.ts.bump() }

// OpEnd marks the owning goroutine quiescent.
func (o *owner) OpEnd() { o.ts.bump() }

// Stats returns a copy of the allocator's counters. Safe to call from any
// goroutine.
func (o *owner) Stats() Stats { return o.stats.stats() }

type batch[E any] struct {
	items []E
	snap  []uint64
}

// freeList is the epoch protocol, written once: freed elements gather in
// cur, a full window is stamped with a collector snapshot and released, and
// a released batch moves to free once the collector proves it safe. The
// buffer of a batch that collect has emptied is cleared and kept in spare,
// and release takes the next cur from there, so a steady stream of frees
// regrows no window.
type freeList[E any] struct {
	free     []E        // reclaimed, ready for reuse
	cur      []E        // freed in the current epoch window
	released []batch[E] // stamped batches awaiting safety
	spare    [][]E      // emptied batch buffers, length 0
}

// put frees e. It becomes reusable only after every goroutine active now
// has left its current operation.
func (l *freeList[E]) put(o *owner, e E) {
	o.stats.frees.Add(1)
	o.stats.garbage.Add(1)
	l.cur = append(l.cur, e)
	if len(l.cur) >= o.threshold {
		l.release(o.c)
	}
}

// release stamps the current window and queues it for collection.
func (l *freeList[E]) release(c *Collector) {
	if len(l.cur) == 0 {
		return
	}
	l.released = append(l.released, batch[E]{items: l.cur, snap: c.snapshot()})
	l.cur = nil
	if n := len(l.spare); n > 0 {
		l.cur, l.spare[n-1] = l.spare[n-1], nil
		l.spare = l.spare[:n-1]
	}
}

// collect moves every released batch whose snapshot has been superseded to
// the free list and returns how many elements it reclaimed.
func (l *freeList[E]) collect(o *owner) int {
	reclaimed := 0
	kept := l.released[:0]
	for _, b := range l.released {
		if o.c.safe(b.snap) {
			l.free = append(l.free, b.items...)
			reclaimed += len(b.items)
			clear(b.items)
			l.spare = append(l.spare, b.items[:0])
		} else {
			kept = append(kept, b)
		}
	}
	l.released = kept
	if reclaimed > 0 {
		o.stats.gcPasses.Add(1)
		o.stats.collected.Add(uint64(reclaimed))
	}
	return reclaimed
}

// take returns a reclaimed element, collecting first when the free list is
// empty; ok is false when nothing is safe to reuse yet.
func (l *freeList[E]) take(o *owner) (e E, ok bool) {
	if len(l.free) == 0 && len(l.released) > 0 {
		l.collect(o)
	}
	n := len(l.free)
	if n == 0 {
		return e, false
	}
	e = l.free[n-1]
	var zero E
	l.free[n-1] = zero
	l.free = l.free[:n-1]
	o.stats.reused.Add(1)
	o.stats.garbage.Add(-1)
	return e, true
}

// Allocator is a per-thread SSMEM allocator for objects of type T. It must
// only be used by the goroutine that created it; cross-thread frees go
// through that thread's own allocator, as in ssmem (freeing memory allocated
// elsewhere is allowed, freeing concurrently from one allocator is not).
type Allocator[T any] struct {
	owner
	freeList[*T]
}

// NewAllocator registers a new per-thread allocator with c. threshold is the
// garbage bound before a free batch is stamped and released for collection
// (the paper's configurable "amount of garbage SSMEM allows before
// performing GC"); values < 1 use DefaultThreshold.
func NewAllocator[T any](c *Collector, threshold int) *Allocator[T] {
	return newAllocator[Allocator[T]](c, threshold)
}

// allocator is what pool needs of an allocator type: a pointer to it that
// reaches its owner.
type allocator[A any] interface {
	*A
	own() *owner
}

func newAllocator[A any, PA allocator[A]](c *Collector, threshold int) PA {
	a := PA(new(A))
	a.own().init(c, threshold)
	return a
}

// Alloc returns an object, reusing reclaimed memory when a GC pass has
// proven it safe, and falling back to the Go heap otherwise.
func (a *Allocator[T]) Alloc() *T {
	a.stats.allocs.Add(1)
	if p, ok := a.take(&a.owner); ok {
		return p
	}
	return new(T)
}

// Free hands an object back to the allocator. The object becomes reusable
// only after every thread active now has left its current operation.
func (a *Allocator[T]) Free(p *T) { a.put(&a.owner, p) }

// Collect attempts a GC pass: every released batch whose timestamp snapshot
// has been superseded moves to the free list. It returns the number of
// objects reclaimed.
func (a *Allocator[T]) Collect() int { return a.collect(&a.owner) }

// FlushRelease stamps any pending frees immediately instead of waiting for
// the threshold. Tests and shutdown paths use it.
func (a *Allocator[T]) FlushRelease() { a.release(a.c) }

// --- pool: the sync.Pool-of-allocators pattern --------------------------

// pool hands out per-goroutine allocators of type A that share one
// Collector: the pattern the re-engineered urcu table uses so any number of
// goroutines can recycle memory without owning a long-lived allocator.
// Get/Put bracket one operation (or any window in which the caller keeps
// references). Pool and BufPool are its two faces.
//
// Ownership lives in the `all` table, not in the sync.Pool: the sync.Pool
// only caches lease references (cheap per-P fast path), and every
// allocator carries a leased flag claimed by CAS. When the runtime clears
// the sync.Pool on a GC cycle (or race mode drops a Put), the allocator is
// simply re-adopted from `all` on the next miss instead of being created
// anew — so the allocator count, the retained free lists, and the
// collector's thread registry are all bounded by peak concurrent leases,
// not by process lifetime.
type pool[A any, PA allocator[A]] struct {
	c         *Collector
	threshold int
	fresh     func(PA) // readies each allocator the pool creates; nil: nothing to do
	stripes   *stripes[A]
	p         sync.Pool

	mu  sync.Mutex
	all []PA
}

func (p *pool[A, PA]) init(threshold int) {
	p.c, p.threshold, p.stripes = NewCollector(), threshold, newStripes[A]()
}

// Get leases an allocator for the calling goroutine. The fast path is the
// caller's stripe slot (see stripe.go): one uncontended swap hands back the
// allocator the same goroutine parked last, free lists still warm. Stripe
// misses fall through to the sync.Pool + lease-and-adopt slow path. The
// allocator remembers the hint, so that Put parks it where this Get looked.
func (p *pool[A, PA]) Get() PA {
	hint := stripeHint()
	a := PA(p.stripes.take(hint))
	if a != nil && a.own().leased.CompareAndSwap(false, true) {
		p.stripes.hit(hint)
	} else {
		// Empty, or stale: an adopter claimed the parked allocator
		// straight from the table. Drop the reference and go slow.
		p.stripes.miss()
		a = p.getSlow()
		// The slow path may create an allocator, which can grow, and so
		// move, this goroutine's stack: park where the next Get looks.
		hint = stripeHint()
	}
	a.own().hint = hint
	return a
}

func (p *pool[A, PA]) getSlow() PA {
	for {
		a, _ := p.p.Get().(PA)
		if a == nil {
			return p.adoptOrCreate()
		}
		if a.own().leased.CompareAndSwap(false, true) {
			return a
		}
		// The parked reference went stale: an adopter claimed this
		// allocator straight from the table. Drop it and try again.
	}
}

// adoptOrCreate reclaims an unleased allocator from the table (one whose
// sync.Pool reference was dropped by a GC cycle), creating a fresh one
// only when every registered allocator is simultaneously leased.
func (p *pool[A, PA]) adoptOrCreate() PA {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range p.all {
		if a.own().leased.CompareAndSwap(false, true) {
			return a
		}
	}
	a := newAllocator[A, PA](p.c, p.threshold)
	if p.fresh != nil {
		p.fresh(a)
	}
	a.own().leased.Store(true)
	p.all = append(p.all, a)
	return a
}

// Put returns a leased allocator. The allocator must be quiescent (every
// OpStart matched by OpEnd). It parks in the stripe slot its Get looked in
// when that is free, overflowing to the sync.Pool otherwise.
func (p *pool[A, PA]) Put(a PA) {
	o := a.own()
	hint := o.hint // read before the release: an adopter rewrites it
	o.leased.Store(false)
	if p.stripes.park(hint, (*A)(a)) {
		return
	}
	p.p.Put(a)
}

// StripeStats reports the striped fast path's hit/miss split: hits are Gets
// served from the caller's own stripe slot (the per-P affinity path), misses
// fell through to the shared sync.Pool + adopt path.
func (p *pool[A, PA]) StripeStats() (hits, misses uint64) { return p.stripes.stats() }

// Stats aggregates the counters of every allocator the pool created. The
// per-allocator counters are read atomically, so the aggregate is safe (if
// momentarily inconsistent) under concurrency; quiesce first for exact
// numbers.
func (p *pool[A, PA]) Stats() Stats {
	p.mu.Lock()
	all := p.all
	p.mu.Unlock()
	var s Stats
	for _, a := range all {
		s.Add(a.own().Stats())
	}
	return s
}

// Pool is the lease pool over Allocator[T].
type Pool[T any] struct {
	pool[Allocator[T], *Allocator[T]]
}

// NewPool builds a pool with its own Collector. threshold is per allocator
// (values < 1 use DefaultThreshold).
func NewPool[T any](threshold int) *Pool[T] {
	p := &Pool[T]{}
	p.init(threshold)
	return p
}

// Collector returns the shared collector (tests use it to build cooperating
// standalone allocators).
func (p *Pool[T]) Collector() *Collector { return p.c }

// --- BufPool: epoch-recycled byte blocks --------------------------------

// Buffer size classes: powers of two from minBufClass to maxBufClass bytes.
// Requests above the top class fall through to the Go heap (they are rare —
// the server's default item cap is 1 MiB but typical values are tens to
// hundreds of bytes).
const (
	minBufShift = 5  // 32 B
	maxBufShift = 16 // 64 KiB
	numBufClass = maxBufShift - minBufShift + 1
)

func bufClassFor(n int) int {
	c := 0
	for sz := 1 << minBufShift; sz < n; sz <<= 1 {
		c++
	}
	return c
}

// chunkSize is the size of the chunks fresh blocks are carved from: 16
// blocks of the top class, 32768 of the smallest.
const chunkSize = 1 << 20

// arena owns the chunks, mapped outside the Go heap, that one pool's
// allocators carve blocks from. The mutex is taken only when a chunk is
// mapped, and by Stats and release: never on Alloc's reuse path.
type arena struct {
	mu     sync.Mutex
	chunks [][]byte
}

// grab maps a fresh chunk and registers it, or returns nil when the
// mapping fails.
func (r *arena) grab() []byte {
	c, err := mapChunk(chunkSize)
	if err != nil {
		return nil
	}
	r.mu.Lock()
	r.chunks = append(r.chunks, c)
	r.mu.Unlock()
	return c
}

// mapped returns the bytes of every registered chunk.
func (r *arena) mapped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return uint64(len(r.chunks)) * chunkSize
}

// release unmaps every registered chunk.
func (r *arena) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.chunks {
		_ = unmapChunk(c) // fails only for a slice mapChunk did not return
	}
	r.chunks = nil
}

// BufAllocator is the per-goroutine face of a BufPool: size-classed []byte
// allocation with SSMEM epoch reclamation, one free list per size class.
// Like Allocator, it is single-goroutine; OpStart/OpEnd bracket the window
// in which blocks obtained from the shared structure may still be
// referenced. A block no free list can supply is carved from the
// allocator's current chunk, as SSMEM hands out fresh objects from its
// memory chunks.
type BufAllocator struct {
	owner
	classes [numBufClass]freeList[[]byte]
	tail    []byte // the uncarved rest of the current chunk
	arena   *arena
}

// NewBufAllocator registers a buffer allocator with c. It carves from an
// arena of its own, which is never unmapped.
func NewBufAllocator(c *Collector, threshold int) *BufAllocator {
	a := newAllocator[BufAllocator](c, threshold)
	a.adopt(new(arena))
	return a
}

// adopt makes r the arena a carves from and maps a's first chunk. A pool
// calls it inside the Get that creates a, before Get derives the stripe
// hint a is parked under: a mapping can grow the goroutine's stack, which
// moves the hint (stripeHint), and one in a's first Alloc would move it
// after Get had derived it, so the next Get would miss its stripe.
func (a *BufAllocator) adopt(r *arena) {
	a.arena = r
	a.tail = r.grab()
}

// Alloc returns a block of length n, recycled when provably safe. Blocks
// larger than the top size class come from the Go heap and are simply
// dropped on Free.
func (a *BufAllocator) Alloc(n int) []byte {
	a.stats.allocs.Add(1)
	if n > 1<<maxBufShift {
		return make([]byte, n)
	}
	ci := bufClassFor(n)
	if b, ok := a.classes[ci].take(&a.owner); ok {
		return b[:n]
	}
	return a.carve(ci, n)
}

// carve cuts a fresh block of class ci from the current chunk, mapping a
// new chunk when the rest of the current one is too short. The block's
// capacity is its class size, so an append can never reach its neighbour.
// If no chunk can be mapped the block comes from the Go heap.
func (a *BufAllocator) carve(ci, n int) []byte {
	size := 1 << (minBufShift + ci)
	if len(a.tail) < size {
		if a.tail = a.arena.grab(); a.tail == nil {
			return make([]byte, n, size)
		}
	}
	b := a.tail[:n:size]
	a.tail = a.tail[size:]
	return b
}

// Free hands a block back. Blocks whose capacity is not an exact size class
// (not allocated by a BufAllocator) are dropped to the Go GC.
func (a *BufAllocator) Free(b []byte) {
	c := cap(b)
	if c == 0 || c > 1<<maxBufShift || c&(c-1) != 0 || c < 1<<minBufShift {
		return
	}
	a.classes[bufClassFor(c)].put(&a.owner, b[:0])
}

// FlushRelease stamps all pending frees across every size class.
func (a *BufAllocator) FlushRelease() {
	for i := range a.classes {
		a.classes[i].release(a.c)
	}
}

// BufPool is the lease pool over BufAllocator: per-goroutine size-classed
// block allocators over one Collector and one arena, with aggregate Stats.
type BufPool struct {
	pool[BufAllocator, *BufAllocator]
	arena arena
}

// NewBufPool builds a buffer pool with its own Collector.
func NewBufPool(threshold int) *BufPool {
	p := &BufPool{}
	p.init(threshold)
	p.fresh = func(a *BufAllocator) { a.adopt(&p.arena) }
	return p
}

// Stats aggregates the counters of every allocator the pool created, and
// reports the bytes of chunk memory the pool has mapped.
func (p *BufPool) Stats() Stats {
	s := p.pool.Stats()
	s.Mapped = p.arena.mapped()
	return s
}

// Release unmaps every chunk the pool's allocators carved blocks from and
// empties their free lists, so the pool holds no reference into unmapped
// memory. Every block the pool handed out is invalid afterwards: only a
// pool whose blocks nothing can read again may be released — no lease is
// outstanding, and no structure that holds its blocks is, or will be,
// served.
func (p *BufPool) Release() {
	p.mu.Lock()
	for _, a := range p.all {
		a.classes = [numBufClass]freeList[[]byte]{}
		a.tail = nil
	}
	p.mu.Unlock()
	p.arena.release()
}
