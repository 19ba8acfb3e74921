package ascylib

import (
	"fmt"
	"sync"
	"testing"
)

// TestShardedStringMapBasic covers the routing facade: per-key semantics
// unchanged, Len/ForEach aggregation, RouteBytes naming the shard that
// holds the key, and the partition populated.
func TestShardedStringMapBasic(t *testing.T) {
	for _, algo := range []string{"ht-clht-lb", "ll-lazy", "sl-fraser-opt"} {
		t.Run(algo, func(t *testing.T) {
			m := MustNewShardedStringMap[int](algo, 4, Capacity(64))
			if got := m.NumShards(); got != 4 {
				t.Fatalf("NumShards = %d, want 4", got)
			}
			const n = 2000
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("key-%d", i)
				if !m.Insert(k, i) {
					t.Fatalf("Insert %s failed", k)
				}
				sh, h := m.RouteBytes([]byte(k))
				if v, ok := m.Shard(sh).Get(k); !ok || v != i {
					t.Fatalf("RouteBytes(%s) names shard %d, which holds (%d,%v)", k, sh, v, ok)
				}
				if v, ok := m.GetBytesHashed(sh, h, []byte(k)); !ok || v != i {
					t.Fatalf("GetBytesHashed(RouteBytes(%s)) = (%d,%v)", k, v, ok)
				}
			}
			if got := m.Len(); got != n {
				t.Fatalf("Len = %d, want %d", got, n)
			}
			// Every shard must hold a share, and the shards must sum to the
			// whole (the router and the Shard accessor see the same maps).
			sum := 0
			for i := 0; i < m.NumShards(); i++ {
				l := m.Shard(i).Len()
				if l == 0 {
					t.Fatalf("shard %d is empty after %d inserts", i, n)
				}
				sum += l
			}
			if sum != n {
				t.Fatalf("shard lens sum to %d, want %d", sum, n)
			}
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("key-%d", i)
				if v, ok := m.Get(k); !ok || v != i {
					t.Fatalf("Get(%s) = (%d,%v)", k, v, ok)
				}
				if v, ok := m.GetBytes([]byte(k)); !ok || v != i {
					t.Fatalf("GetBytes(%s) = (%d,%v)", k, v, ok)
				}
			}
			seen := 0
			m.ForEach(func(string, int) bool { seen++; return true })
			if seen != n {
				t.Fatalf("ForEach saw %d entries, want %d", seen, n)
			}
			// Update, GetOrInsert, Put, Delete route like Get.
			if v, present := m.Update("key-7", func(old int, p bool) (int, bool) {
				if !p || old != 7 {
					t.Fatalf("Update old = (%d,%v)", old, p)
				}
				return 77, true
			}); !present || v != 77 {
				t.Fatalf("Update = (%d,%v)", v, present)
			}
			if got, inserted := m.GetOrInsert("key-7", 0); inserted || got != 77 {
				t.Fatalf("GetOrInsert(existing) = (%d,%v)", got, inserted)
			}
			if fresh := m.Put("brand-new", 1); !fresh {
				t.Fatal("Put of fresh key not fresh")
			}
			if v, ok := m.Delete("key-7"); !ok || v != 77 {
				t.Fatalf("Delete = (%d,%v)", v, ok)
			}
			if _, ok := m.Get("key-7"); ok {
				t.Fatal("deleted key still visible")
			}
		})
	}
}

// TestShardedStringMapConcurrent hammers per-key counters through
// UpdateBytes from many goroutines: totals must be exact (no lost updates
// across the shard split) with a concurrent ForEach running throughout.
func TestShardedStringMapConcurrent(t *testing.T) {
	m := MustNewShardedStringMap[int]("ht-clht-lb", 4, Capacity(256))
	const workers, rounds, keys = 8, 500, 32
	stop := make(chan struct{})
	var scanner sync.WaitGroup
	scanner.Add(1)
	go func() {
		defer scanner.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.ForEach(func(_ string, v int) bool { return v >= 0 })
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := make([]byte, 0, 16)
			for i := 0; i < rounds; i++ {
				key = append(key[:0], "ctr-"...)
				key = append(key, byte('a'+i%keys))
				m.UpdateBytes(key, func(old int, _ bool) (int, bool) { return old + 1, true })
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scanner.Wait()
	total := 0
	m.ForEach(func(_ string, v int) bool { total += v; return true })
	if total != workers*rounds {
		t.Fatalf("counter total = %d, want %d", total, workers*rounds)
	}
}

// TestShardedStringMapGetBytesZeroAlloc extends the PR3 allocation gate to
// the sharded facade: routing must not cost an allocation — a steady-state
// GetBytes hit through the shard router stays at 0 allocs/op.
func TestShardedStringMapGetBytesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under race instrumentation")
	}
	m := MustNewShardedStringMap[uint64]("ht-clht-lb", 8, Capacity(256))
	key := []byte("benchmark-key")
	m.UpdateBytes(key, func(_ uint64, _ bool) (uint64, bool) { return 42, true })
	var v uint64
	var ok bool
	if avg := testing.AllocsPerRun(200, func() {
		v, ok = m.GetBytes(key)
	}); avg != 0 {
		t.Fatalf("sharded GetBytes allocates %.1f/op, want 0", avg)
	}
	if !ok || v != 42 {
		t.Fatalf("GetBytes = %d, %v", v, ok)
	}
}

// TestShardedRecycleStatsAggregate: the facade-level RecycleStats must sum
// shard domains (and stay zero without recycling).
func TestShardedRecycleStatsAggregate(t *testing.T) {
	m := MustNewShardedStringMap[int]("ll-lazy", 4, Capacity(64),
		RecycleNodes(true), RecycleThreshold(8))
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", i)
		m.Put(k, i)
		m.Delete(k)
	}
	if st := m.RecycleStats(); st.Allocs == 0 || st.Frees == 0 {
		t.Fatalf("aggregated recycle stats flat after churn: %+v", st)
	}
	plain := MustNewShardedStringMap[int]("ll-lazy", 4, Capacity(64))
	plain.Put("a", 1)
	plain.Delete("a")
	if st := plain.RecycleStats(); st.Allocs != 0 {
		t.Fatalf("recycling off but stats nonzero: %+v", st)
	}
}
