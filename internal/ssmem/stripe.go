// Per-P allocator affinity: a striped fast path fronting the pools.
//
// Pool and BufPool park idle allocators in a sync.Pool, which already gives
// rough per-P locality — but the runtime clears sync.Pools on every GC cycle
// and migrates cached items between Ps through its shared victim lists, so
// under sustained multi-core load an allocator (and the warm free lists it
// carries) keeps changing owners, and every migration drags its cache lines
// across cores. That is exactly the deferred-work cache traffic ASCY4 warns
// about, resurfacing inside the memory manager itself.
//
// The stripe layer removes it: a small GOMAXPROCS-sized array of
// cache-line-isolated parking slots, indexed by a goroutine-affine hint.
// Put parks the allocator in the slot its Get looked in; the next Get from
// the same stripe takes it back with one uncontended atomic swap — no
// sync.Pool, no GC interference, no cross-slot sharing. Goroutines that
// collide on a slot (or arrive after a steal) simply fall through to the
// existing sync.Pool + lease-and-adopt path, so the stripe is purely an
// affinity accelerator: ownership, bounding, and the epoch protocol are
// unchanged.
package ssmem

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/pad"
)

// maxStripes bounds the slot array; beyond this the marginal affinity win
// does not pay for the aggregation scan.
const maxStripes = 64

// stripeSlot is one parking space. The pointer and its hit counter share the
// slot's private line; leading and trailing pads keep neighbors (and the
// enclosing struct's other fields) off it, so a slot is written only by the
// goroutines hashing to it.
type stripeSlot[A any] struct {
	_    pad.CacheLinePad
	p    atomic.Pointer[A]
	hits atomic.Uint64
	_    [pad.CacheLineSize - 16]byte
}

// stripes is the striped parking lot shared by Pool and BufPool.
type stripes[A any] struct {
	slots []stripeSlot[A]
	mask  uint32
	// misses counts Gets that fell through to the slow path; padded so the
	// (rare) contended bumps stay off the slots' lines.
	misses pad.Padded
}

// newStripes sizes the lot to the host's parallelism at construction time
// (rounded up to a power of two, capped). GOMAXPROCS can change later — the
// -cpu sweeps do exactly that — but a stripe count fixed at the larger of
// GOMAXPROCS and NumCPU keeps every plausible setting covered.
func newStripes[A any]() *stripes[A] {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c > n {
		n = c
	}
	size := 1
	for size < n {
		size <<= 1
	}
	if size > maxStripes {
		size = maxStripes
	}
	return &stripes[A]{slots: make([]stripeSlot[A], size), mask: uint32(size - 1)}
}

// stripeHint derives a goroutine-affine stripe index. Goroutine stacks are
// distinct heap allocations of at least 2 KiB, so the address of any stack
// variable, with the low in-stack bits dropped, separates goroutines while
// staying stable across shallow call-depth differences between one Get and
// the next. Only Gets compute it: Put parks an allocator under the hint of
// the Get that leased it, because a server's Put runs far shallower than its
// Gets (the request path sits kilobytes deeper on the stack than the loop
// that unpins). A finalizing multiply spreads the surviving bits so the
// mask sees all of them. This is affinity by goroutine rather than by P —
// indistinguishable for the server's goroutine-per-connection loops, and
// always safe: the hint only picks a slot, never protects anything.
func stripeHint() uint32 {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b))) >> 11
	h *= 0x9E3779B97F4A7C15
	return uint32(h >> 32)
}

// take removes and returns the caller-stripe's parked allocator, nil when
// the slot is empty.
func (s *stripes[A]) take(hint uint32) *A {
	return s.slots[hint&s.mask].p.Swap(nil)
}

// park stores a into the caller's slot, failing (false) when it is occupied.
func (s *stripes[A]) park(hint uint32, a *A) bool {
	return s.slots[hint&s.mask].p.CompareAndSwap(nil, a)
}

// hit credits a fast-path hand-out to the caller's slot.
func (s *stripes[A]) hit(hint uint32) {
	s.slots[hint&s.mask].hits.Add(1)
}

// miss counts a slow-path fall-through.
func (s *stripes[A]) miss() {
	atomic.AddUint64(&s.misses.Value, 1)
}

// stats sums fast-path hits and slow-path misses across the lot.
func (s *stripes[A]) stats() (hits, misses uint64) {
	for i := range s.slots {
		hits += s.slots[i].hits.Load()
	}
	return hits, atomic.LoadUint64(&s.misses.Value)
}
