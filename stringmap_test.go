package ascylib

import (
	"fmt"
	"sync"
	"testing"
)

func TestStringMapBasic(t *testing.T) {
	for _, algo := range []string{"ht-clht-lb", "ht-clht-lf", "sl-fraser-opt"} {
		t.Run(algo, func(t *testing.T) {
			m := MustNewShardedStringMap[string](algo, 1, Capacity(64))
			if _, ok := m.Get("missing"); ok {
				t.Fatal("Get on empty map reported a hit")
			}
			if !m.Insert("a", "1") {
				t.Fatal("first Insert failed")
			}
			if m.Insert("a", "2") {
				t.Fatal("duplicate Insert succeeded")
			}
			if v, ok := m.Get("a"); !ok || v != "1" {
				t.Fatalf("Get(a) = %q, %v", v, ok)
			}
			if fresh := m.Put("a", "3"); fresh {
				t.Fatal("Put on existing key reported fresh")
			}
			if v, _ := m.Get("a"); v != "3" {
				t.Fatalf("Put did not replace: %q", v)
			}
			if got, inserted := m.GetOrInsert("a", "x"); inserted || got != "3" {
				t.Fatalf("GetOrInsert(existing) = %q, %v", got, inserted)
			}
			if got, inserted := m.GetOrInsert("b", "y"); !inserted || got != "y" {
				t.Fatalf("GetOrInsert(fresh) = %q, %v", got, inserted)
			}
			if v, ok := m.Delete("a"); !ok || v != "3" {
				t.Fatalf("Delete(a) = %q, %v", v, ok)
			}
			if _, ok := m.Get("a"); ok {
				t.Fatal("Get after Delete hit")
			}
			if _, ok := m.Delete("a"); ok {
				t.Fatal("double Delete reported removal")
			}
			if n := m.Len(); n != 1 {
				t.Fatalf("Len = %d, want 1", n)
			}
			seen := map[string]string{}
			m.ForEach(func(k, v string) bool { seen[k] = v; return true })
			if len(seen) != 1 || seen["b"] != "y" {
				t.Fatalf("ForEach saw %v", seen)
			}
		})
	}
}

func TestStringMapUpdateCounter(t *testing.T) {
	m := MustNewShardedStringMap[int]("ht-clht-lb", 1, Capacity(64))
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m.Update("ctr", func(old int, _ bool) (int, bool) { return old + 1, true })
			}
		}()
	}
	wg.Wait()
	if v, ok := m.Get("ctr"); !ok || v != workers*rounds {
		t.Fatalf("counter = %d, %v; want %d", v, ok, workers*rounds)
	}
}

func TestStringMapManyKeys(t *testing.T) {
	// Enough keys on a tiny table to exercise hash-chain collisions.
	m := MustNewShardedStringMap[int]("ht-clht-lb", 1, Capacity(4))
	const n = 2000
	for i := 0; i < n; i++ {
		if !m.Insert(fmt.Sprintf("key-%d", i), i) {
			t.Fatalf("Insert key-%d failed", i)
		}
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(fmt.Sprintf("key-%d", i)); !ok || v != i {
			t.Fatalf("Get(key-%d) = %d, %v", i, v, ok)
		}
	}
	for i := 0; i < n; i += 2 {
		if _, ok := m.Delete(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("Delete key-%d failed", i)
		}
	}
	if got := m.Len(); got != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", got, n/2)
	}
	for i := 1; i < n; i += 2 {
		if v, ok := m.Get(fmt.Sprintf("key-%d", i)); !ok || v != i {
			t.Fatalf("survivor Get(key-%d) = %d, %v", i, v, ok)
		}
	}
}

func TestStringMapBytesPaths(t *testing.T) {
	for _, algo := range []string{"ht-clht-lb", "ht-clht-lf", "sl-fraser-opt"} {
		t.Run(algo, func(t *testing.T) {
			m := MustNewShardedStringMap[string](algo, 1, Capacity(64))
			// Fresh insert through the bytes path materializes the key once.
			m.UpdateBytes([]byte("alpha"), func(_ string, present bool) (string, bool) {
				if present {
					t.Fatal("fresh key reported present")
				}
				return "1", true
			})
			if v, ok := m.Get("alpha"); !ok || v != "1" {
				t.Fatalf("Get after UpdateBytes = %q, %v", v, ok)
			}
			if v, ok := m.GetBytes([]byte("alpha")); !ok || v != "1" {
				t.Fatalf("GetBytes = %q, %v", v, ok)
			}
			if _, ok := m.GetBytes([]byte("beta")); ok {
				t.Fatal("GetBytes hit on absent key")
			}
			// Overwrite through bytes, read through string.
			m.UpdateBytes([]byte("alpha"), func(old string, present bool) (string, bool) {
				if !present || old != "1" {
					t.Fatalf("old = %q, %v", old, present)
				}
				return "2", true
			})
			if v, _ := m.Get("alpha"); v != "2" {
				t.Fatalf("after overwrite: %q", v)
			}
			// Remove through bytes.
			if _, present := m.UpdateBytes([]byte("alpha"), func(old string, _ bool) (string, bool) {
				return old, false
			}); present {
				t.Fatal("remove reported still present")
			}
			if _, ok := m.Get("alpha"); ok {
				t.Fatal("key survived UpdateBytes remove")
			}
		})
	}
}

// TestStringMapGetBytesZeroAlloc is one of the PR's allocation gates: a
// steady-state GetBytes hit must not allocate (no string materialization,
// no chain copying) on the headline hash-table backends.
func TestStringMapGetBytesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under race instrumentation")
	}
	for _, algo := range []string{"ht-clht-lb", "ht-clht-lf"} {
		t.Run(algo, func(t *testing.T) {
			m := MustNewShardedStringMap[uint64](algo, 1, Capacity(256))
			key := []byte("benchmark-key")
			m.UpdateBytes(key, func(_ uint64, _ bool) (uint64, bool) { return 42, true })
			var v uint64
			var ok bool
			if avg := testing.AllocsPerRun(200, func() {
				v, ok = m.GetBytes(key)
			}); avg != 0 {
				t.Fatalf("GetBytes allocates %.1f/op, want 0", avg)
			}
			if !ok || v != 42 {
				t.Fatalf("GetBytes = %d, %v", v, ok)
			}
		})
	}
}

// TestStringMapUpdateStagingIsolated: a chain built by one Update
// invocation must never be written after it is published, since concurrent
// readers may hold it (values read back must always be internally
// consistent).
func TestStringMapUpdateStagingIsolated(t *testing.T) {
	m := MustNewShardedStringMap[[2]uint64]("ht-clht-lb", 1, Capacity(64))
	const writers, rounds = 4, 2000
	var readerErr error
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // reader: every observed value must be a (x, x) pair
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v, ok := m.GetBytes([]byte("pair")); ok && v[0] != v[1] {
				readerErr = fmt.Errorf("torn pair: %v", v)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				x := uint64(w*rounds + i)
				m.UpdateBytes([]byte("pair"), func(_ [2]uint64, _ bool) ([2]uint64, bool) {
					return [2]uint64{x, x}, true
				})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if v, ok := m.Get("pair"); !ok || v[0] != v[1] {
		t.Fatalf("final value torn: %v %v", v, ok)
	}
}
