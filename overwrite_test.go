package ascylib_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	ascylib "repro"
	"repro/internal/core"
	"repro/internal/server"
)

// TestStringMapOverwriteNeverMisses: overwriting a key that is present must
// never make it absent, not even for an instant. One goroutine overwrites
// key 33 of 64 in a loop while another reads it; every read must hit, on
// every Safe registry entry, through the hash-routed and the ordered
// ShardedStringMap alike, and through the server's Store on the backend the
// ordered scan workload serves.
func TestStringMapOverwriteNeverMisses(t *testing.T) {
	reads := 200_000
	if testing.Short() {
		reads = 20_000
	}
	for _, a := range core.All() {
		if !a.Safe {
			continue
		}
		for _, ordered := range []bool{false, true} {
			mode := "hash"
			if ordered {
				mode = "ordered"
			}
			t.Run(a.Name+"/"+mode, func(t *testing.T) {
				newMap := ascylib.NewShardedStringMap[uint64]
				if ordered {
					newMap = ascylib.NewOrderedShardedStringMap[uint64]
				}
				m, err := newMap(a.Name, 2, ascylib.Capacity(128))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 64; i++ {
					m.Put(fmt.Sprintf("key-%02d", i), 0)
				}
				hot := []byte("key-33")
				misses := probeOverwrite(reads, func() {
					m.UpdateBytes(hot, func(v uint64, _ bool) (uint64, bool) { return v + 1, true })
				}, func() bool {
					_, ok := m.GetBytes(hot)
					return ok
				})
				if misses != 0 {
					t.Fatalf("%d of %d reads missed the overwritten key (%.3f%%)",
						misses, reads, 100*float64(misses)/float64(reads))
				}
			})
		}
	}
	t.Run("store/sl-fraser-opt", func(t *testing.T) {
		st, err := server.NewStore("sl-fraser-opt", 0, true, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		p := st.Pin()
		for i := 0; i < 64; i++ {
			st.Set(p, []byte(fmt.Sprintf("key-%02d", i)), 0, 0, []byte("v0"))
		}
		p.Unpin()
		hot := []byte("key-33")
		misses := probeOverwrite(reads, func() {
			p := st.Pin()
			st.Set(p, hot, 0, 0, []byte("v1"))
			p.Unpin()
		}, func() bool {
			p := st.Pin()
			_, ok := st.Get(p, hot)
			p.Unpin()
			return ok
		})
		if misses != 0 {
			t.Fatalf("%d of %d Store.Get calls missed the overwritten key (%.3f%%)",
				misses, reads, 100*float64(misses)/float64(reads))
		}
	})
}

// TestMapOverwriteNeverMisses is the same probe through a Map[uint64,
// uint64]: an integer map's values live in slots like every other V, so a
// Put of a present key CASes its slot and a concurrent Get always hits.
func TestMapOverwriteNeverMisses(t *testing.T) {
	reads := 200_000
	if testing.Short() {
		reads = 20_000
	}
	for _, a := range core.All() {
		if !a.Safe {
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			m, err := ascylib.NewMap[uint64, uint64](a.Name, ascylib.Capacity(128))
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 64; k++ {
				m.Put(k, k)
			}
			v := uint64(0)
			misses := probeOverwrite(reads, func() {
				v++
				m.Put(33, v)
			}, func() bool {
				_, ok := m.Get(33)
				return ok
			})
			if misses != 0 {
				t.Fatalf("%d of %d reads missed the overwritten key (%.3f%%)",
					misses, reads, 100*float64(misses)/float64(reads))
			}
		})
	}
}

// probeOverwrite runs overwrite in a loop on one goroutine while it calls
// read reads times on the caller's, and returns how many reads missed.
func probeOverwrite(reads int, overwrite func(), read func() bool) int {
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			overwrite()
		}
	}()
	misses := 0
	for i := 0; i < reads; i++ {
		if !read() {
			misses++
		}
	}
	stop.Store(true)
	wg.Wait()
	return misses
}
