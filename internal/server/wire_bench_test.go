// Wire-path microbenchmarks: the parse→store→respond loop in isolation,
// with -benchmem as the allocation ledger (the alloc gates in alloc_test.go
// assert the get path at exactly zero). The Batched variants measure the
// amortized path — one pin, one clock read, and one staged lookup per run
// of gets — against the per-command (MaxBatch 1) baseline; b.N counts
// commands in both, so ns/op is directly comparable.
//
// The hot variants read one key, whose lines stay in cache: they measure
// the path's instructions. The Cold variants read uniformly random keys of
// a 65,536-key store with 64-byte values, so every get pays the lookup's
// chain of cache misses (core bucket, slot, chain node, key bytes, value
// block); that chain is what staged lookups overlap.
package server

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/xrand"
)

const (
	coldKeys     = 1 << 16
	coldValueLen = 64
	coldDepth    = 32
)

func BenchmarkWireGetPath(b *testing.B) {
	benchWireGets(b, hotServer(b), []byte("get hotkey\r\n"), 1)
}

// BenchmarkWireGetPathBatched drives the batch path at a fixed depth: one
// ReadBatchInto + executeBatch round per `depth` commands.
func BenchmarkWireGetPathBatched(b *testing.B) {
	const depth = 64
	benchWireGets(b, hotServer(b), bytes.Repeat([]byte("get hotkey\r\n"), depth), depth)
}

func BenchmarkWireGetPathCold(b *testing.B) {
	s, frame := coldServer(b)
	benchWireGets(b, s, frame, 1)
}

func BenchmarkWireGetPathBatchedCold(b *testing.B) {
	s, frame := coldServer(b)
	benchWireGets(b, s, frame, coldDepth)
}

// benchWireGets feeds the repeated frame through ReadBatchInto at batch cap
// depth and executes every batch; b.N counts commands.
func benchWireGets(b *testing.B, s *Server, frame []byte, depth int) {
	br := newReader(&repeatReader{frame: frame}, 1<<16)
	bw := newWriter(devNull{}, 0)
	ws := s.acquireWireStats()
	var batch Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		if _, err := ReadBatchInto(br, DefaultMaxItemSize, depth, &batch); err != nil {
			b.Fatal(err)
		}
		s.executeBatch(&batch, bw, ws)
	}
}

func hotServer(b *testing.B) *Server {
	s, err := New(Config{Algo: "ht-clht-lb"})
	if err != nil {
		b.Fatal(err)
	}
	p := s.store.Pin()
	s.store.Set(p, []byte("hotkey"), 7, 0, []byte("0123456789"))
	p.Unpin()
	return s
}

// coldServer loads coldKeys keys with coldValueLen-byte values and returns
// the server with a frame of single-key gets over uniformly random keys,
// longer than the store, so no run of the benchmark rereads a warm prefix.
func coldServer(b *testing.B) (*Server, []byte) {
	s, err := New(Config{Algo: "ht-clht-lb"})
	if err != nil {
		b.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), coldValueLen)
	p := s.store.Pin()
	for i := 0; i < coldKeys; i++ {
		s.store.Set(p, coldKey(i), 7, 0, val)
	}
	p.Unpin()
	rng := xrand.New(1)
	var frame []byte
	for i := 0; i < 2*coldKeys; i++ {
		frame = append(frame, "get "...)
		frame = append(frame, coldKey(rng.Intn(coldKeys))...)
		frame = append(frame, "\r\n"...)
	}
	return s, frame
}

func coldKey(i int) []byte { return []byte(fmt.Sprintf("key:%08d", i)) }

// BenchmarkStoreGetCold and BenchmarkStoreGetBatchCold compare the store's
// two read entry points on the cold store: coldDepth random keys per pin,
// read one Get at a time or as one GetBatch. b.N counts keys.
func BenchmarkStoreGetCold(b *testing.B) {
	benchStoreCold(b, func(st *Store, p Pin, keys [][]byte) {
		for _, k := range keys {
			it, _ := st.Get(p, k)
			benchSink += len(it.Data)
		}
	})
}

func BenchmarkStoreGetBatchCold(b *testing.B) {
	benchStoreCold(b, func(st *Store, p Pin, keys [][]byte) {
		st.GetBatch(p, keys, func(_ int, it Item, _ bool) { benchSink += len(it.Data) })
	})
}

var benchSink int

func benchStoreCold(b *testing.B, read func(st *Store, p Pin, keys [][]byte)) {
	st, err := NewStore("ht-clht-lb", 0, true, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, coldKeys)
	val := bytes.Repeat([]byte("v"), coldValueLen)
	p := st.Pin()
	for i := range keys {
		keys[i] = coldKey(i)
		st.Set(p, keys[i], 7, 0, val)
	}
	p.Unpin()
	rng := xrand.New(1)
	runs := make([][]byte, 2*coldKeys)
	for i := range runs {
		runs[i] = keys[rng.Intn(coldKeys)]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += coldDepth {
		off := i % len(runs)
		p := st.Pin()
		read(st, p, runs[off:off+coldDepth])
		p.Unpin()
	}
}

func BenchmarkWireSetPath(b *testing.B) {
	s, _ := New(Config{Algo: "ht-clht-lb"})
	br := newReader(&repeatReader{frame: []byte("set hotkey 0 0 10\r\n0123456789\r\n")}, 1<<16)
	bw := newWriter(devNull{}, 0)
	ws := s.acquireWireStats()
	var cmd Command
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReadCommandInto(br, DefaultMaxItemSize, &cmd, &sc)
		p := s.store.Pin()
		s.execute(p, &cmd, bw, ws)
		p.Unpin()
	}
}

type devNull struct{}

func (devNull) Write(p []byte) (int, error) { return len(p), nil }
