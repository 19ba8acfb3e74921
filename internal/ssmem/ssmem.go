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
// Three layers build on the protocol:
//
//   - Allocator[T] — the paper's per-thread allocator for one node type.
//   - Pool[T] — a goroutine-friendly pool of Allocators sharing one
//     Collector (the sync.Pool-of-allocators pattern the urcu table
//     introduced), with aggregate Stats.
//   - BufPool / BufAllocator — the same epochs applied to size-classed
//     []byte blocks, used by the server to recycle Item.Data values.
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

type batch[T any] struct {
	items []*T
	snap  []uint64
}

// Allocator is a per-thread SSMEM allocator for objects of type T. It must
// only be used by the goroutine that created it; cross-thread frees go
// through that thread's own allocator, as in ssmem (freeing memory allocated
// elsewhere is allowed, freeing concurrently from one allocator is not).
type Allocator[T any] struct {
	c         *Collector
	ts        *threadTS
	threshold int
	leased    atomic.Bool // claimed by a Pool lease (see Pool.Get)

	free     []*T       // reclaimed, ready for reuse
	cur      []*T       // freed in the current epoch window
	released []batch[T] // stamped batches awaiting safety

	stats counters
}

// NewAllocator registers a new per-thread allocator with c. threshold is the
// garbage bound before a free batch is stamped and released for collection
// (the paper's configurable "amount of garbage SSMEM allows before
// performing GC"); values < 1 use DefaultThreshold.
func NewAllocator[T any](c *Collector, threshold int) *Allocator[T] {
	if threshold < 1 {
		threshold = DefaultThreshold
	}
	return &Allocator[T]{c: c, ts: c.register(), threshold: threshold}
}

// OpStart marks the owning thread as inside a data-structure operation.
// Structures integrated with SSMEM call this on operation entry; references
// obtained before OpStart or after OpEnd must not be retained.
func (a *Allocator[T]) OpStart() { a.ts.bump() }

// OpEnd marks the owning thread quiescent.
func (a *Allocator[T]) OpEnd() { a.ts.bump() }

// Alloc returns an object, reusing reclaimed memory when a GC pass has
// proven it safe, and falling back to the Go heap otherwise.
func (a *Allocator[T]) Alloc() *T {
	a.stats.allocs.Add(1)
	if len(a.free) == 0 && len(a.released) > 0 {
		a.Collect()
	}
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.stats.reused.Add(1)
		a.stats.garbage.Add(-1)
		return p
	}
	return new(T)
}

// Free hands an object back to the allocator. The object becomes reusable
// only after every thread active now has left its current operation.
func (a *Allocator[T]) Free(p *T) {
	a.stats.frees.Add(1)
	a.stats.garbage.Add(1)
	a.cur = append(a.cur, p)
	if len(a.cur) >= a.threshold {
		a.releaseBatch()
	}
}

func (a *Allocator[T]) releaseBatch() {
	if len(a.cur) == 0 {
		return
	}
	a.released = append(a.released, batch[T]{items: a.cur, snap: a.c.snapshot()})
	a.cur = nil
}

// Collect attempts a GC pass: every released batch whose timestamp snapshot
// has been superseded moves to the free list. It returns the number of
// objects reclaimed.
func (a *Allocator[T]) Collect() int {
	reclaimed := 0
	kept := a.released[:0]
	for _, b := range a.released {
		if a.c.safe(b.snap) {
			a.free = append(a.free, b.items...)
			reclaimed += len(b.items)
		} else {
			kept = append(kept, b)
		}
	}
	a.released = kept
	if reclaimed > 0 {
		a.stats.gcPasses.Add(1)
		a.stats.collected.Add(uint64(reclaimed))
	}
	return reclaimed
}

// FlushRelease stamps any pending frees immediately instead of waiting for
// the threshold. Tests and shutdown paths use it.
func (a *Allocator[T]) FlushRelease() { a.releaseBatch() }

// Stats returns a copy of the allocator's counters. Safe to call from any
// goroutine.
func (a *Allocator[T]) Stats() Stats { return a.stats.stats() }

// --- Pool: the sync.Pool-of-allocators pattern --------------------------

// Pool hands out per-goroutine Allocators that share one Collector: the
// pattern the re-engineered urcu table uses so any number of goroutines can
// recycle nodes without owning a long-lived allocator. Get/Put bracket one
// operation (or any window in which the caller keeps references).
//
// Ownership lives in the `all` table, not in the sync.Pool: the sync.Pool
// only caches lease references (cheap per-P fast path), and every
// allocator carries a leased flag claimed by CAS. When the runtime clears
// the sync.Pool on a GC cycle (or race mode drops a Put), the allocator is
// simply re-adopted from `all` on the next miss instead of being created
// anew — so the allocator count, the retained free lists, and the
// collector's thread registry are all bounded by peak concurrent leases,
// not by process lifetime.
type Pool[T any] struct {
	c         *Collector
	threshold int
	stripes   *stripes[Allocator[T]]
	p         sync.Pool

	mu  sync.Mutex
	all []*Allocator[T]
}

// NewPool builds a pool with its own Collector. threshold is per allocator
// (values < 1 use DefaultThreshold).
func NewPool[T any](threshold int) *Pool[T] {
	return &Pool[T]{c: NewCollector(), threshold: threshold, stripes: newStripes[Allocator[T]]()}
}

// Collector returns the shared collector (tests use it to build cooperating
// standalone allocators).
func (p *Pool[T]) Collector() *Collector { return p.c }

// Get leases an allocator for the calling goroutine. The fast path is the
// caller's stripe slot (see stripe.go): one uncontended swap hands back the
// allocator the same goroutine parked last, free lists still warm. Stripe
// misses fall through to the sync.Pool + lease-and-adopt slow path.
func (p *Pool[T]) Get() *Allocator[T] {
	hint := stripeHint()
	if a := p.stripes.take(hint); a != nil {
		if a.leased.CompareAndSwap(false, true) {
			p.stripes.hit(hint)
			return a
		}
		// Stale: an adopter claimed this allocator straight from the
		// table while it sat parked. Drop the reference and go slow.
	}
	p.stripes.miss()
	for {
		a, _ := p.p.Get().(*Allocator[T])
		if a == nil {
			return p.adoptOrCreate()
		}
		if a.leased.CompareAndSwap(false, true) {
			return a
		}
		// The parked reference went stale: an adopter claimed this
		// allocator straight from the table. Drop it and try again.
	}
}

// adoptOrCreate reclaims an unleased allocator from the table (one whose
// sync.Pool reference was dropped by a GC cycle), creating a fresh one
// only when every registered allocator is simultaneously leased.
func (p *Pool[T]) adoptOrCreate() *Allocator[T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range p.all {
		if a.leased.CompareAndSwap(false, true) {
			return a
		}
	}
	a := NewAllocator[T](p.c, p.threshold)
	a.leased.Store(true)
	p.all = append(p.all, a)
	return a
}

// Put returns a leased allocator. The allocator must be quiescent (every
// OpStart matched by OpEnd). It parks in the caller's stripe slot when that
// is free, overflowing to the sync.Pool otherwise.
func (p *Pool[T]) Put(a *Allocator[T]) {
	a.leased.Store(false)
	if p.stripes.park(stripeHint(), a) {
		return
	}
	p.p.Put(a)
}

// StripeStats reports the striped fast path's hit/miss split: hits are Gets
// served from the caller's own stripe slot (the per-P affinity path), misses
// fell through to the shared sync.Pool + adopt path.
func (p *Pool[T]) StripeStats() (hits, misses uint64) { return p.stripes.stats() }

// Stats aggregates the counters of every allocator the pool created. The
// per-allocator counters are read atomically, so the aggregate is safe (if
// momentarily inconsistent) under concurrency; quiesce first for exact
// numbers.
func (p *Pool[T]) Stats() Stats {
	p.mu.Lock()
	all := p.all
	p.mu.Unlock()
	var s Stats
	for _, a := range all {
		s.Add(a.Stats())
	}
	return s
}

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

type bufBatch struct {
	items [][]byte
	snap  []uint64
}

type bufClass struct {
	free     [][]byte
	cur      [][]byte
	released []bufBatch
}

// BufAllocator is the per-goroutine face of a BufPool: size-classed []byte
// allocation with SSMEM epoch reclamation. Like Allocator, it is
// single-goroutine; OpStart/OpEnd bracket the window in which blocks
// obtained from the shared structure may still be referenced.
type BufAllocator struct {
	c         *Collector
	ts        *threadTS
	threshold int
	leased    atomic.Bool // claimed by a BufPool lease
	classes   [numBufClass]bufClass
	stats     counters
}

// NewBufAllocator registers a buffer allocator with c.
func NewBufAllocator(c *Collector, threshold int) *BufAllocator {
	if threshold < 1 {
		threshold = DefaultThreshold
	}
	return &BufAllocator{c: c, ts: c.register(), threshold: threshold}
}

// OpStart marks the owning goroutine as inside an operation.
func (a *BufAllocator) OpStart() { a.ts.bump() }

// OpEnd marks the owning goroutine quiescent.
func (a *BufAllocator) OpEnd() { a.ts.bump() }

// Alloc returns a block of length n, recycled when provably safe. Blocks
// larger than the top size class come from the Go heap and are simply
// dropped on Free.
func (a *BufAllocator) Alloc(n int) []byte {
	a.stats.allocs.Add(1)
	if n > 1<<maxBufShift {
		return make([]byte, n)
	}
	ci := bufClassFor(n)
	cl := &a.classes[ci]
	if len(cl.free) == 0 && len(cl.released) > 0 {
		a.collectClass(cl)
	}
	if ln := len(cl.free); ln > 0 {
		b := cl.free[ln-1]
		cl.free[ln-1] = nil
		cl.free = cl.free[:ln-1]
		a.stats.reused.Add(1)
		a.stats.garbage.Add(-1)
		return b[:n]
	}
	return make([]byte, n, 1<<(minBufShift+ci))
}

// Free hands a block back. Blocks whose capacity is not an exact size class
// (not allocated by a BufAllocator) are dropped to the Go GC.
func (a *BufAllocator) Free(b []byte) {
	c := cap(b)
	if c == 0 || c > 1<<maxBufShift || c&(c-1) != 0 || c < 1<<minBufShift {
		return
	}
	a.stats.frees.Add(1)
	a.stats.garbage.Add(1)
	ci := bufClassFor(c)
	cl := &a.classes[ci]
	cl.cur = append(cl.cur, b[:0])
	if len(cl.cur) >= a.threshold {
		a.releaseClass(cl)
	}
}

func (a *BufAllocator) releaseClass(cl *bufClass) {
	if len(cl.cur) == 0 {
		return
	}
	cl.released = append(cl.released, bufBatch{items: cl.cur, snap: a.c.snapshot()})
	cl.cur = nil
}

func (a *BufAllocator) collectClass(cl *bufClass) int {
	reclaimed := 0
	kept := cl.released[:0]
	for _, b := range cl.released {
		if a.c.safe(b.snap) {
			cl.free = append(cl.free, b.items...)
			reclaimed += len(b.items)
		} else {
			kept = append(kept, b)
		}
	}
	cl.released = kept
	if reclaimed > 0 {
		a.stats.gcPasses.Add(1)
		a.stats.collected.Add(uint64(reclaimed))
	}
	return reclaimed
}

// FlushRelease stamps all pending frees across every size class.
func (a *BufAllocator) FlushRelease() {
	for i := range a.classes {
		a.releaseClass(&a.classes[i])
	}
}

// Stats returns the allocator's counters. Safe from any goroutine.
func (a *BufAllocator) Stats() Stats { return a.stats.stats() }

// BufPool is Pool for byte blocks: per-goroutine BufAllocators over one
// Collector, with aggregate Stats. Ownership follows Pool's lease-and-adopt
// scheme, so dropped sync.Pool references never leak allocators or their
// retained block lists.
type BufPool struct {
	c         *Collector
	threshold int
	stripes   *stripes[BufAllocator]
	p         sync.Pool

	mu  sync.Mutex
	all []*BufAllocator
}

// NewBufPool builds a buffer pool with its own Collector.
func NewBufPool(threshold int) *BufPool {
	return &BufPool{c: NewCollector(), threshold: threshold, stripes: newStripes[BufAllocator]()}
}

// Get leases a buffer allocator for the calling goroutine, trying the
// caller's stripe slot first (see Pool.Get).
func (p *BufPool) Get() *BufAllocator {
	hint := stripeHint()
	if a := p.stripes.take(hint); a != nil {
		if a.leased.CompareAndSwap(false, true) {
			p.stripes.hit(hint)
			return a
		}
	}
	p.stripes.miss()
	for {
		a, _ := p.p.Get().(*BufAllocator)
		if a == nil {
			return p.adoptOrCreate()
		}
		if a.leased.CompareAndSwap(false, true) {
			return a
		}
	}
}

func (p *BufPool) adoptOrCreate() *BufAllocator {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range p.all {
		if a.leased.CompareAndSwap(false, true) {
			return a
		}
	}
	a := NewBufAllocator(p.c, p.threshold)
	a.leased.Store(true)
	p.all = append(p.all, a)
	return a
}

// Put returns a leased allocator (must be quiescent), parking it in the
// caller's stripe slot when free.
func (p *BufPool) Put(a *BufAllocator) {
	a.leased.Store(false)
	if p.stripes.park(stripeHint(), a) {
		return
	}
	p.p.Put(a)
}

// StripeStats reports the striped fast path's hit/miss split (see
// Pool.StripeStats).
func (p *BufPool) StripeStats() (hits, misses uint64) { return p.stripes.stats() }

// Stats aggregates across every allocator the pool created.
func (p *BufPool) Stats() Stats {
	p.mu.Lock()
	all := p.all
	p.mu.Unlock()
	var s Stats
	for _, a := range all {
		s.Add(a.Stats())
	}
	return s
}
