package ssmem

import (
	"runtime"
	"sync"
	"testing"
)

// TestStripedFastPathAffinity: a goroutine that Puts and re-Gets must be
// served from its own stripe slot — the per-P affinity path — not from the
// shared sync.Pool, once the slot is primed.
func TestStripedFastPathAffinity(t *testing.T) {
	p := NewPool[obj](4)
	const rounds = 256
	for i := 0; i < rounds; i++ {
		a := p.Get()
		a.OpStart()
		a.Free(a.Alloc())
		a.OpEnd()
		p.Put(a)
	}
	hits, misses := p.StripeStats()
	// The first Get necessarily misses (nothing parked yet); everything
	// after must come from the stripe slot: same goroutine, same hint,
	// nobody competing.
	if hits < rounds-1 {
		t.Fatalf("stripe fast path served %d of %d gets (misses=%d), want >= %d",
			hits, rounds, misses, rounds-1)
	}

	bp := NewBufPool(4)
	for i := 0; i < rounds; i++ {
		a := bp.Get()
		a.OpStart()
		a.Free(a.Alloc(64))
		a.OpEnd()
		bp.Put(a)
	}
	if hits, misses := bp.StripeStats(); hits < rounds-1 {
		t.Fatalf("BufPool stripe fast path served %d of %d gets (misses=%d)",
			hits, rounds, misses)
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
