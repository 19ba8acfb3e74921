package ssmem

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// TestStripedFastPathAffinity: a goroutine that Puts and re-Gets must be
// served from its own stripe slot — the per-P affinity path — not from the
// shared sync.Pool, once the slot is primed.
//
// The hint is derived from a stack address, so a stack move between two
// Gets (growth, or a GC stack shrink) costs a miss that says nothing about
// the fast path. The collector is off while the loops run, so no shrink
// can happen, and each pool's hits are counted after one warm-up round,
// so the first slow path's stack growth is not counted either.
func TestStripedFastPathAffinity(t *testing.T) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 256

	p := NewPool[obj](4)
	round := func() {
		a := p.Get()
		a.OpStart()
		a.Free(a.Alloc())
		a.OpEnd()
		p.Put(a)
	}
	round()
	hits0, misses0 := p.StripeStats()
	for i := 0; i < rounds; i++ {
		round()
	}
	// Same goroutine, same hint, nobody competing: every Get after the
	// warm-up comes from the stripe slot.
	if hits, misses := p.StripeStats(); hits-hits0 != rounds {
		t.Fatalf("stripe fast path served %d of %d gets (misses=%d)",
			hits-hits0, rounds, misses-misses0)
	}

	bp := NewBufPool(4)
	bround := func() {
		a := bp.Get()
		a.OpStart()
		a.Free(a.Alloc(64))
		a.OpEnd()
		bp.Put(a)
	}
	bround()
	hits0, misses0 = bp.StripeStats()
	for i := 0; i < rounds; i++ {
		bround()
	}
	if hits, misses := bp.StripeStats(); hits-hits0 != rounds {
		t.Fatalf("BufPool stripe fast path served %d of %d gets (misses=%d)",
			hits-hits0, rounds, misses-misses0)
	}
}

// deepSink keeps deepGet's frames from being optimized away.
var deepSink uint64

// deepGet calls get depth frames down, each frame holding 1 KiB of stack.
func deepGet(depth int, get func() *BufAllocator) *BufAllocator {
	var pad [128]uint64
	pad[depth%128] = uint64(depth)
	if depth == 0 {
		return get()
	}
	a := deepGet(depth-1, get)
	deepSink += pad[(depth*7)%128]
	return a
}

// TestStripedAffinityAcrossPutDepth: the server's Gets run kilobytes deeper
// on the stack than the loop that Puts, so a hint taken at Put would name
// another slot; Put parks under the hint of the Get that leased the
// allocator, and the next Get from the same depth finds it. 64 stripes, so
// a Put-side hint would miss almost always.
func TestStripedAffinityAcrossPutDepth(t *testing.T) {
	bp := NewBufPool(4)
	bp.stripes = &stripes[BufAllocator]{slots: make([]stripeSlot[BufAllocator], maxStripes), mask: maxStripes - 1}
	const rounds = 256
	for i := 0; i < rounds; i++ {
		a := deepGet(16, bp.Get)
		a.OpStart()
		a.Free(a.Alloc(64))
		a.OpEnd()
		bp.Put(a)
	}
	if hits, misses := bp.StripeStats(); hits < rounds-rounds/16 {
		t.Fatalf("stripe fast path served %d of %d deep gets (misses=%d)", hits, rounds, misses)
	}
}

// TestStripedPoolConcurrentChurn is the -race gate for the striped fast
// path: many goroutines lease, allocate, free, and park concurrently while
// GC cycles clear the sync.Pool underneath. The race detector asserts the
// slot handoffs are properly synchronized; the counters assert no operation
// was lost or double-served.
func TestStripedPoolConcurrentChurn(t *testing.T) {
	p := NewPool[obj](8)
	bp := NewBufPool(8)
	const workers, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a := p.Get()
				a.OpStart()
				o := a.Alloc()
				a.Free(o)
				a.OpEnd()
				p.Put(a)

				ba := bp.Get()
				ba.OpStart()
				b := ba.Alloc(48)
				ba.Free(b)
				ba.OpEnd()
				bp.Put(ba)
				if i%64 == 0 {
					runtime.GC() // clear the sync.Pool; stripes must not care
				}
			}
		}()
	}
	wg.Wait()
	if s := p.Stats(); s.Allocs != workers*per || s.Frees != workers*per {
		t.Fatalf("pool aggregate = %+v, want %d allocs/frees", s, workers*per)
	}
	if s := bp.Stats(); s.Allocs != workers*per || s.Frees != workers*per {
		t.Fatalf("bufpool aggregate = %+v, want %d allocs/frees", s, workers*per)
	}
	// Ownership stayed bounded: the stripe layer must not have minted
	// allocators beyond peak concurrent leases.
	p.mu.Lock()
	n := len(p.all)
	p.mu.Unlock()
	if n > workers {
		t.Fatalf("allocator table grew to %d with %d workers", n, workers)
	}
}

// TestStripedPoolReuseBalance: with the striped fast path on, recycling
// still actually recycles — the reuse-rate floor the allocs ledger gates.
// An allocator that kept migrating would strand its free lists; affinity
// must keep them warm enough that steady churn reuses well over half its
// allocations, and the stripe path must be serving the traffic.
func TestStripedPoolReuseBalance(t *testing.T) {
	p := NewPool[obj](8)
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		a := p.Get()
		a.OpStart()
		o := a.Alloc()
		a.Free(o)
		a.OpEnd()
		p.Put(a)
	}
	s := p.Stats()
	if rate := s.ReuseRate(); rate < 0.5 {
		t.Fatalf("reuse rate %.2f with striping on, want >= 0.5 (%+v)", rate, s)
	}
	hits, misses := p.StripeStats()
	if hits == 0 || hits < misses {
		t.Fatalf("stripe path idle under churn: hits=%d misses=%d", hits, misses)
	}
}
