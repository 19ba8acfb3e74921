// kvstore: a miniature in-memory key-value store with a skip-list memtable,
// the workload the paper's introduction motivates ("skip lists are the
// backbone of key-value stores such as RocksDB").
//
// Built on the typed facade ascylib.Map[uint64, []byte]: string keys are
// hashed to 64-bit map keys, and arbitrary []byte payloads are boxed by the
// facade, which keeps one slot per entry and points the library's 64-bit
// value at it — the hand-rolled slot arena this example used to carry is
// gone. A write-heavy ingest phase is followed by a read-mostly serving
// phase, mirroring an LSM memtable's life cycle, and the flush uses the v2
// Range surface to drain the memtable in key order like a real
// memtable-to-SSTable flush.
//
// Run with: go run ./examples/kvstore
package main

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	ascylib "repro"
)

// KV is a tiny concurrent KV store: an ASCY-compliant skip list as the
// index, typed through the generic facade.
type KV struct {
	m *ascylib.Map[uint64, []byte]
}

// NewKV builds the store on the fraser-opt skip list (ASCY1+2 applied).
func NewKV() *KV {
	return &KV{m: ascylib.MustNewMap[uint64, []byte]("sl-fraser-opt")}
}

func keyOf(k string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(k))
	v := h.Sum64()
	if v == 0 || v >= ^uint64(0)-2 {
		v = 1 // stay inside the facade's valid key range
	}
	return v
}

// Put stores value under key (upsert); it reports whether the key was fresh.
func (kv *KV) Put(key string, value []byte) bool {
	return kv.m.Put(keyOf(key), value)
}

// Get fetches the value for key.
func (kv *KV) Get(key string) ([]byte, bool) {
	return kv.m.Get(keyOf(key))
}

// Delete removes key.
func (kv *KV) Delete(key string) bool {
	_, ok := kv.m.Delete(keyOf(key))
	return ok
}

// FlushScan drains the memtable in key order (as a flush to an SSTable
// would) through the v2 Range surface — the skip list serves the scan
// natively, in sorted order, inside the structure. It returns entries
// visited and payload bytes.
func (kv *KV) FlushScan() (entries int, bytes int) {
	kv.m.Range(0, ^uint64(0)-2, func(_ uint64, v []byte) bool {
		entries++
		bytes += len(v)
		return true
	})
	return entries, bytes
}

func main() {
	kv := NewKV()
	const writers = 8
	const keysPerWriter = 20000

	// Phase 1: parallel ingest (write-heavy), as when a memtable absorbs
	// a burst of puts.
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keysPerWriter; i++ {
				k := fmt.Sprintf("user:%d:event:%d", w, i)
				kv.Put(k, []byte(fmt.Sprintf("payload-%d-%d", w, i)))
			}
		}(w)
	}
	wg.Wait()
	ingest := time.Since(start)
	fmt.Printf("ingest: %d keys in %v (%.2f Mops/s)\n",
		writers*keysPerWriter, ingest,
		float64(writers*keysPerWriter)/ingest.Seconds()/1e6)
	fmt.Printf("memtable size: %d\n", kv.m.Len())

	// Phase 2: read-mostly serving (95% gets / 5% puts) — the regime the
	// ASCY1 search pattern is built for.
	start = time.Now()
	var gets, hits atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keysPerWriter; i++ {
				k := fmt.Sprintf("user:%d:event:%d", (w+1)%writers, i)
				if i%20 == 19 {
					kv.Put(k, []byte("updated"))
					continue
				}
				gets.Add(1)
				if _, ok := kv.Get(k); ok {
					hits.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	serve := time.Since(start)
	fmt.Printf("serve: %d gets (%.1f%% hit) in %v (%.2f Mops/s)\n",
		gets.Load(), 100*float64(hits.Load())/float64(gets.Load()), serve,
		float64(writers*keysPerWriter)/serve.Seconds()/1e6)

	// Phase 3: ordered flush scan over the whole memtable (v2 Range
	// surface; the skip list serves it natively).
	start = time.Now()
	entries, bytes := kv.FlushScan()
	fmt.Printf("flush scan: %d entries, %d payload bytes in %v (native order: %v)\n",
		entries, bytes, time.Since(start), kv.m.NativeOrder())

	// Point reads after the churn.
	if v, ok := kv.Get("user:3:event:7"); ok {
		fmt.Printf("kv[user:3:event:7] = %q\n", v)
	}
	kv.Delete("user:3:event:7")
	_, ok := kv.Get("user:3:event:7")
	fmt.Println("after delete, present:", ok)
}
