package ssmem

import (
	"runtime"
	"sync"
	"testing"
)

// TestPoolSingleHandOut: an object freed once is handed out at most once —
// the pool never duplicates a node (the "returns a node at most once"
// invariant the structure-level recycling relies on).
func TestPoolSingleHandOut(t *testing.T) {
	p := NewPool[obj](1)
	a := p.Get()
	const n = 64
	freed := make(map[*obj]bool, n)
	for i := 0; i < n; i++ {
		a.OpStart()
		o := a.Alloc()
		a.Free(o)
		a.OpEnd()
		freed[o] = true
	}
	live := make(map[*obj]int)
	for i := 0; i < 4*n; i++ {
		a.OpStart()
		o := a.Alloc()
		a.OpEnd()
		live[o]++
		if live[o] > 1 {
			t.Fatalf("object %p handed out twice without an intervening free", o)
		}
	}
	p.Put(a)
	if s := p.Stats(); s.Reused == 0 {
		t.Fatalf("no reuse recorded: %+v", s)
	}
	_ = freed
}

// TestPoolStatsAggregate: Stats sums across every allocator the pool ever
// created, including ones parked in the pool.
func TestPoolStatsAggregate(t *testing.T) {
	p := NewPool[obj](4)
	var wg sync.WaitGroup
	const workers, per = 4, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := p.Get()
			defer p.Put(a)
			for i := 0; i < per; i++ {
				a.OpStart()
				o := a.Alloc()
				a.Free(o)
				a.OpEnd()
			}
		}()
	}
	wg.Wait()
	s := p.Stats()
	if s.Allocs != workers*per || s.Frees != workers*per {
		t.Fatalf("aggregate = %+v, want %d allocs/frees", s, workers*per)
	}
}

// TestCollectorRegisterConcurrentWithChecks: registration is rare but must
// not race with the lock-free snapshot/safe reads. Run under -race.
func TestCollectorRegisterConcurrentWithChecks(t *testing.T) {
	c := NewCollector()
	a := NewAllocator[obj](c, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			b := NewAllocator[obj](c, 1)
			b.OpStart()
			b.OpEnd()
		}
	}()
	for i := 0; i < 2000; i++ {
		a.OpStart()
		o := a.Alloc()
		a.Free(o)
		a.OpEnd()
		a.Collect()
	}
	<-done
}

func TestBufAllocatorClassReuse(t *testing.T) {
	c := NewCollector()
	a := NewBufAllocator(c, 1)
	a.OpStart()
	b := a.Alloc(100) // 128-byte class
	if cap(b) != 128 || len(b) != 100 {
		t.Fatalf("cap/len = %d/%d, want 128/100", cap(b), len(b))
	}
	a.Free(b)
	a.OpEnd()
	a.OpStart()
	b2 := a.Alloc(120)
	a.OpEnd()
	if cap(b2) != 128 {
		t.Fatalf("second alloc cap = %d", cap(b2))
	}
	if &b2[:1][0] != &b[:1][0] {
		t.Fatal("block not reused after safe epoch")
	}
	if s := a.Stats(); s.Reused != 1 {
		t.Fatalf("stats = %+v, want Reused=1", s)
	}
}

func TestBufAllocatorEpochBlocksReuse(t *testing.T) {
	c := NewCollector()
	reader := NewBufAllocator(c, 1)
	writer := NewBufAllocator(c, 1)

	reader.OpStart() // holds an epoch open

	writer.OpStart()
	b := writer.Alloc(64)
	writer.Free(b)
	writer.OpEnd()

	writer.OpStart()
	b2 := writer.Alloc(64)
	writer.OpEnd()
	if &b[0] == &b2[0] {
		t.Fatal("block reused while another goroutine was inside an operation")
	}
	reader.OpEnd()
}

func TestBufAllocatorDropsForeignBlocks(t *testing.T) {
	c := NewCollector()
	a := NewBufAllocator(c, 1)
	a.Free(make([]byte, 0, 100)) // not a class size: dropped
	a.Free(nil)
	oversize := a.Alloc(1 << 20) // above the top class: plain heap
	if cap(oversize) != 1<<20 {
		t.Fatalf("oversize cap = %d", cap(oversize))
	}
	a.Free(oversize[: 0 : 1<<20])
	if s := a.Stats(); s.Frees != 0 {
		t.Fatalf("foreign/oversize blocks were pooled: %+v", s)
	}
}

func TestBufClassFor(t *testing.T) {
	cases := map[int]int{1: 0, 32: 0, 33: 1, 64: 1, 65: 2, 1 << 16: numBufClass - 1}
	for n, want := range cases {
		if got := bufClassFor(n); got != want {
			t.Fatalf("bufClassFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestPoolBoundedAcrossGC: the runtime clears sync.Pools on every GC
// cycle; the lease-and-adopt scheme must re-adopt registered allocators
// instead of creating new ones, so the allocator table (and with it the
// collector's thread registry and the retained free lists) stays bounded
// by peak concurrent leases, not by process lifetime.
func TestPoolBoundedAcrossGC(t *testing.T) {
	p := NewPool[obj](4)
	for i := 0; i < 50; i++ {
		a := p.Get()
		a.OpStart()
		a.Free(a.Alloc())
		a.OpEnd()
		p.Put(a)
		runtime.GC() // drops the sync.Pool reference; the table keeps ownership
	}
	p.mu.Lock()
	n := len(p.all)
	p.mu.Unlock()
	if n > 2 {
		t.Fatalf("allocator table grew to %d across GC cycles, want <= 2", n)
	}
	bp := NewBufPool(4)
	for i := 0; i < 50; i++ {
		a := bp.Get()
		a.OpStart()
		a.Free(a.Alloc(64))
		a.OpEnd()
		bp.Put(a)
		runtime.GC()
	}
	bp.mu.Lock()
	bn := len(bp.all)
	bp.mu.Unlock()
	if bn > 2 {
		t.Fatalf("buffer allocator table grew to %d across GC cycles, want <= 2", bn)
	}
}

func TestBufPoolAggregate(t *testing.T) {
	p := NewBufPool(1)
	a := p.Get()
	a.OpStart()
	b := a.Alloc(48)
	a.Free(b)
	a.OpEnd()
	p.Put(a)
	if s := p.Stats(); s.Allocs != 1 || s.Frees != 1 {
		t.Fatalf("aggregate = %+v", s)
	}
}

// TestBufAllocatorCarvesDisjointBlocks: fresh blocks of one class come from
// one chunk, back to back, each capped at its class size, so an append to
// one can never write into its neighbour.
func TestBufAllocatorCarvesDisjointBlocks(t *testing.T) {
	a := NewBufAllocator(NewCollector(), 1)
	a.OpStart()
	defer a.OpEnd()
	const n = 1 + chunkSize/1024 // one more than a chunk holds: maps a second
	seen := make(map[*byte]bool, n)
	for i := 0; i < n; i++ {
		b := a.Alloc(1000)
		if len(b) != 1000 || cap(b) != 1024 {
			t.Fatalf("block %d: len/cap = %d/%d, want 1000/1024", i, len(b), cap(b))
		}
		for _, c := range b {
			if c != 0 {
				t.Fatalf("block %d is not zeroed", i)
			}
		}
		b = append(b, make([]byte, 24)...) // fills the block's capacity exactly
		for j := range b {
			b[j] = byte(i)
		}
		if seen[&b[0]] {
			t.Fatalf("block %d handed out twice", i)
		}
		seen[&b[0]] = true
	}
	if got := a.arena.mapped(); got != 2*chunkSize {
		t.Fatalf("mapped %d bytes, want two chunks (%d)", got, 2*chunkSize)
	}
}

// TestBufPoolReleaseUnmaps: a pool reports the chunk memory its blocks were
// carved from, and Release gives all of it back.
func TestBufPoolReleaseUnmaps(t *testing.T) {
	p := NewBufPool(4)
	a := p.Get()
	a.OpStart()
	for _, n := range []int{10, 100, 1000, 10000, 1 << maxBufShift} {
		b := a.Alloc(n)
		b[len(b)-1] = 1
	}
	a.OpEnd()
	p.Put(a)
	if m := p.Stats().Mapped; m == 0 {
		t.Fatal("Mapped = 0 after carving blocks")
	}
	p.Release()
	if m := p.Stats().Mapped; m != 0 {
		t.Fatalf("Mapped = %d after Release, want 0", m)
	}
}

// TestBufPoolSteadyStateRecyclingZeroAlloc: once warm, a lease, an epoch
// bracket and an allocation recycled from the free list cost (almost) no
// Go heap. The one allocation left is the collector's timestamp snapshot
// of each released batch. TotalAlloc counts bytes, so amortized
// allocations show, where AllocsPerRun's integer division would hide
// them.
func TestBufPoolSteadyStateRecyclingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode instrumentation allocates")
	}
	p := NewBufPool(0)
	step := func() {
		a := p.Get()
		a.OpStart()
		a.Free(a.Alloc(1000))
		a.OpEnd()
		p.Put(a)
	}
	for i := 0; i < 4*DefaultThreshold; i++ {
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100_000; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	got, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("100000 recycled allocations: %d bytes of Go heap in %d mallocs", got, mallocs)
	if got >= 64<<10 {
		t.Fatalf("allocated %d bytes, want < 64 KiB", got)
	}
}
