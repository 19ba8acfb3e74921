package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// repeatReader endlessly replays one frame, so a parse loop can run in
// steady state without touching the allocator for input.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestServerGetPathZeroAlloc is the end-to-end allocation gate: a
// per-command get hit (MaxBatch 1) — ReadBatchInto → a run of one through
// getRun → Store.Get → VALUE staging — must
// perform zero heap allocations per request in steady state, for both the
// hash-table headliner and an SSMEM-recycling ordered backend, and with the
// keyspace sharded (the per-shard pin routing runs on pooled frames, so
// sharding must not reintroduce a per-request allocation).
func TestServerGetPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, so Pin() itself allocates")
	}
	for _, tc := range []struct {
		algo   string
		shards int
	}{
		{"ht-clht-lb", 1},
		{"ht-clht-lf", 1},
		{"ht-clht-lb", 4},
		{"ll-lazy", 4},
	} {
		algo := tc.algo
		t.Run(fmt.Sprintf("%s/shards-%d", algo, tc.shards), func(t *testing.T) {
			s, err := New(Config{Algo: algo, Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			p := s.store.Pin()
			s.store.Set(p, []byte("hotkey"), 7, 0, bytes.Repeat([]byte("v"), 100))
			p.Unpin()

			br := bufio.NewReaderSize(&repeatReader{frame: []byte("get hotkey\r\n")}, 1<<16)
			bw := newWriter(io.Discard, 0)
			ws := s.acquireWireStats()
			var b Batch
			step := func() {
				if _, err := ReadBatchInto(br, DefaultMaxItemSize, 1, &b); err != nil {
					t.Fatal(err)
				}
				s.executeBatch(&b, bw, ws)
			}
			for i := 0; i < 64; i++ {
				step() // reach steady state (scratch sized, pools primed)
			}
			if avg := testing.AllocsPerRun(512, step); avg != 0 {
				t.Fatalf("pipelined get hit allocates %.2f/op, want 0", avg)
			}
			if ws.n[cGetHits].Load() == 0 || ws.n[cGetMisses].Load() != 0 {
				t.Fatalf("gate did not exercise hits: hits=%d misses=%d",
					ws.n[cGetHits].Load(), ws.n[cGetMisses].Load())
			}
		})
	}
}

// TestServerBatchedGetPathZeroAlloc is the batch-path allocation gate: a
// deep pipelined burst — ReadBatchInto over 63 buffered get frames, one run
// of gets executed as staged lookups under one pin — must stay at zero heap
// allocations per batch in steady state: the per-command path's invariant
// carried onto the amortized path, so batching cannot buy its speed with
// per-command garbage. Two bursts: a hot one (one key over and over, plus a
// multi-get spanning every shard) and a cold one whose runs walk 4,096
// distinct keys through get, gets and multi-key gets.
func TestServerBatchedGetPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, so Pin() itself allocates")
	}
	const distinct = 4096
	// The cold burst: every key once per pass of the frame, in commands of
	// 1 (get), 1 (gets) and 6 (gets) keys.
	var cold []byte
	for i, c := 0, 0; i < distinct; c++ {
		verb, n := "get", 1
		switch c % 3 {
		case 1:
			verb = "gets"
		case 2:
			verb, n = "gets", 6
		}
		cold = append(cold, verb...)
		for ; n > 0 && i < distinct; n, i = n-1, i+1 {
			cold = append(cold, fmt.Sprintf(" d%04d", i)...)
		}
		cold = append(cold, "\r\n"...)
	}
	for _, tc := range []struct {
		algo   string
		shards int
	}{
		{"ht-clht-lb", 1},
		{"ht-clht-lb", 4},
		{"ll-lazy", 4},
		{"sl-fraser-opt", 4},
	} {
		t.Run(fmt.Sprintf("%s/shards-%d", tc.algo, tc.shards), func(t *testing.T) {
			s, err := New(Config{Algo: tc.algo, Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			p := s.store.Pin()
			for i := 0; i < 8; i++ {
				s.store.Set(p, []byte(fmt.Sprintf("key%d", i)), 7, 0, bytes.Repeat([]byte("v"), 100))
			}
			for i := 0; i < distinct; i++ {
				s.store.Set(p, []byte(fmt.Sprintf("d%04d", i)), 7, 0, bytes.Repeat([]byte("v"), 64))
			}
			p.Unpin()
			// 62 single-key gets plus one 8-key multi-get: 63 commands per
			// burst, every one a hit, the multi-get spanning every shard.
			hot := bytes.Repeat([]byte("get key1\r\n"), 62)
			hot = append(hot, []byte("get key0 key1 key2 key3 key4 key5 key6 key7\r\n")...)
			for _, burst := range []struct {
				name  string
				frame []byte
			}{{"hot", hot}, {"cold", cold}} {
				br := bufio.NewReaderSize(&repeatReader{frame: burst.frame}, 1<<16)
				bw := newWriter(io.Discard, 0)
				ws := s.acquireWireStats()
				var b Batch
				step := func() {
					n, err := ReadBatchInto(br, DefaultMaxItemSize, 63, &b)
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						t.Fatal("empty batch")
					}
					if s.executeBatch(&b, bw, ws) {
						t.Fatal("batch asked to close the connection")
					}
				}
				for i := 0; i < 32; i++ {
					step() // steady state: batch tables sized, pools primed
				}
				if avg := testing.AllocsPerRun(256, step); avg != 0 {
					t.Fatalf("%s batched get burst allocates %.2f/batch, want 0", burst.name, avg)
				}
				if ws.n[cGetMisses].Load() != 0 {
					t.Fatalf("%s gate keys missed: misses=%d", burst.name, ws.n[cGetMisses].Load())
				}
				if got := ws.n[cCmdBatched].Load() / ws.n[cBatches].Load(); got < 32 {
					t.Fatalf("%s achieved batch depth %d, want >= 32 (batching not engaged)", burst.name, got)
				}
			}
		})
	}
}

// TestStoreDataPoolingNoAliasing hammers one key with concurrent sets and
// pinned gets: a reader must never observe a value block that a recycled
// write has begun overwriting (every byte of the returned Data must agree).
// Run under -race: the SSMEM epoch edges are what make this pass.
func TestStoreDataPoolingNoAliasing(t *testing.T) {
	st, err := NewStore("ht-clht-lb", 64, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("aliased")
	const valLen = 256
	mkVal := func(b byte) []byte { return bytes.Repeat([]byte{b}, valLen) }
	p0 := st.Pin()
	st.Set(p0, key, 0, 0, mkVal('a'))
	p0.Unpin()

	const writers, rounds = 3, 3000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := st.Pin()
			it, ok := st.Get(p, key)
			if ok {
				if len(it.Data) != valLen {
					readerErr = errOf("len = %d", len(it.Data))
					p.Unpin()
					return
				}
				first := it.Data[0]
				for i, b := range it.Data {
					if b != first {
						readerErr = errOf("torn value at %d: %q vs %q", i, b, first)
						p.Unpin()
						return
					}
				}
			}
			p.Unpin()
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := mkVal(byte('b' + w))
			for i := 0; i < rounds; i++ {
				p := st.Pin() // per op, as the server pins per request
				st.Set(p, key, 0, 0, val)
				p.Unpin()
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if st.BufStats().Frees == 0 {
		t.Fatal("no value blocks were retired through the pool")
	}
}

// TestStoreDataPoolReuseBalance: blocks are freed at most once and reuse
// actually happens, with or without -race.
func TestStoreDataPoolReuseBalance(t *testing.T) {
	st, err := NewStore("ht-clht-lb", 64, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'x'}, 100)
	key := []byte("k")
	for i := 0; i < 4000; i++ {
		// Pin per operation: an open pin is an open epoch, and garbage
		// freed inside it can never be reclaimed until it closes.
		p := st.Pin()
		st.Set(p, key, 0, 0, val)
		p.Unpin()
	}
	bs := st.BufStats()
	if bs.Frees > bs.Allocs {
		t.Fatalf("more frees than allocs (double free): %+v", bs)
	}
	if bs.Garbage < 0 {
		t.Fatalf("negative garbage (double hand-out): %+v", bs)
	}
	if bs.Reused == 0 {
		t.Fatalf("no block reuse after 4000 overwrites: %+v", bs)
	}
}

// TestStoreVerbPoolReuseBalance pins which value block every write frees.
// Each live item holds exactly one pooled block, so after every outcome of
// every write — stored or refused, over a live, absent or expired item,
// and the reaping get, a reload of the store's own snapshot (every key a
// duplicate) and flush_all 0 — the pool's allocations minus its frees must
// equal the item count. A write that keeps a retired block, or drops a
// block it never published, breaks the balance at that step.
func TestStoreVerbPoolReuseBalance(t *testing.T) {
	st, err := NewStore("ht-clht-lb", 64, true, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1000)
	st.now = func() int64 { return now }
	expire := func() { now += 100 } // past every 10 s TTL set so far
	k := func(s string) []byte { return []byte(s) }
	setTTL := func(p Pin, key string) { st.Set(p, k(key), 0, 10, k("doomed")) }
	casOf := func(p Pin, key string) uint64 {
		it, ok := st.Get(p, k(key))
		if !ok {
			t.Fatalf("%s missing", key)
		}
		return it.CAS
	}
	want := func(step string, got, exp any) {
		t.Helper()
		if got != exp {
			t.Fatalf("%s: got %v, want %v", step, got, exp)
		}
	}
	steps := []struct {
		name string
		run  func(p Pin, name string)
	}{
		{"set/new", func(p Pin, n string) { st.Set(p, k("a"), 0, 0, k("1")) }},
		{"set/overwrite", func(p Pin, n string) { st.Set(p, k("a"), 0, 0, k("alpha")) }},
		{"add/live", func(p Pin, n string) { want(n, st.Add(p, k("a"), 0, 0, k("x")), false) }},
		{"add/new", func(p Pin, n string) { want(n, st.Add(p, k("b"), 0, 0, k("beta")), true) }},
		{"add/expired-setup", func(p Pin, n string) { setTTL(p, "c"); expire() }},
		{"add/expired", func(p Pin, n string) { want(n, st.Add(p, k("c"), 0, 0, k("gamma")), true) }},
		{"replace/live", func(p Pin, n string) { want(n, st.Replace(p, k("b"), 0, 0, k("b2")), true) }},
		{"replace/absent", func(p Pin, n string) { want(n, st.Replace(p, k("zz"), 0, 0, k("x")), false) }},
		{"replace/expired-setup", func(p Pin, n string) { setTTL(p, "d"); expire() }},
		{"replace/expired", func(p Pin, n string) { want(n, st.Replace(p, k("d"), 0, 0, k("x")), false) }},
		{"cas/stored", func(p Pin, n string) {
			want(n, st.CompareAndSwap(p, k("a"), 0, 0, k("a2"), casOf(p, "a")), CasStored)
		}},
		{"cas/exists", func(p Pin, n string) {
			want(n, st.CompareAndSwap(p, k("a"), 0, 0, k("a3"), casOf(p, "a")+1000), CasExists)
		}},
		{"cas/absent", func(p Pin, n string) { want(n, st.CompareAndSwap(p, k("zz"), 0, 0, k("x"), 1), CasNotFound) }},
		{"cas/expired-setup", func(p Pin, n string) { setTTL(p, "e"); expire() }},
		{"cas/expired", func(p Pin, n string) { want(n, st.CompareAndSwap(p, k("e"), 0, 0, k("x"), 1), CasNotFound) }},
		{"incr/setup", func(p Pin, n string) { st.Set(p, k("n"), 0, 0, k("10")) }},
		{"incr/ok", func(p Pin, n string) {
			v, s := st.IncrDecr(p, k("n"), 5, true)
			want(n, s, IncrOK)
			want(n, v, uint64(15))
		}},
		{"decr/ok", func(p Pin, n string) {
			v, s := st.IncrDecr(p, k("n"), 100, false)
			want(n, s, IncrOK)
			want(n, v, uint64(0))
		}},
		{"incr/non-numeric", func(p Pin, n string) {
			_, s := st.IncrDecr(p, k("a"), 1, true)
			want(n, s, IncrNonNumeric)
		}},
		{"incr/absent", func(p Pin, n string) {
			_, s := st.IncrDecr(p, k("zz"), 1, true)
			want(n, s, IncrNotFound)
		}},
		{"incr/expired-setup", func(p Pin, n string) { st.Set(p, k("f"), 0, 10, k("7")); expire() }},
		{"incr/expired", func(p Pin, n string) {
			_, s := st.IncrDecr(p, k("f"), 1, true)
			want(n, s, IncrNotFound)
		}},
		{"delete/live", func(p Pin, n string) { want(n, st.Delete(p, k("b")), true) }},
		{"delete/absent", func(p Pin, n string) { want(n, st.Delete(p, k("zz")), false) }},
		{"delete/expired-setup", func(p Pin, n string) { setTTL(p, "g"); expire() }},
		{"delete/expired", func(p Pin, n string) { want(n, st.Delete(p, k("g")), false) }},
		{"get/reap-setup", func(p Pin, n string) { setTTL(p, "h"); expire() }},
		{"get/reap", func(p Pin, n string) {
			_, ok := st.Get(p, k("h"))
			want(n, ok, false)
		}},
		{"load/duplicates", func(p Pin, n string) {
			before := st.Items()
			var buf bytes.Buffer
			if _, err := st.SnapshotTo(&buf); err != nil {
				t.Fatalf("%s: SnapshotTo: %v", n, err)
			}
			res, err := st.LoadFrom(&buf)
			if err != nil {
				t.Fatalf("%s: LoadFrom: %v", n, err)
			}
			want(n, res.Loaded, uint64(0)) // every record overwrote its key
			want(n, st.Items(), before)
		}},
		{"flush_all/0", func(p Pin, n string) { st.FlushAll(p, 0) }},
	}
	for _, step := range steps {
		p := st.Pin()
		step.run(p, step.name)
		p.Unpin()
		bs := st.BufStats()
		if live := bs.Allocs - bs.Frees; live != uint64(st.Items()) {
			t.Fatalf("after %s: %d blocks allocated and not freed, %d items (%+v)", step.name, live, st.Items(), bs)
		}
	}
	if n := st.Items(); n != 0 {
		t.Fatalf("items after flush_all 0 = %d, want 0", n)
	}
}

// TestStoreReapsExpiredOnGet: a dead item observed by a read is physically
// removed (bounded, non-blocking) instead of lingering until a mutation
// touches the key.
func TestStoreReapsExpiredOnGet(t *testing.T) {
	st, err := NewStore("ht-clht-lb", 64, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1000)
	st.now = func() int64 { return now }
	p := st.Pin()
	st.Set(p, []byte("ttl"), 0, 100, []byte("soon-dead"))
	st.Set(p, []byte("keep"), 0, 0, []byte("alive"))
	p.Unpin()
	if st.Items() != 2 {
		t.Fatalf("items = %d, want 2", st.Items())
	}
	now += 200 // expire "ttl"
	// Re-pin: a pin fixes its timestamp at creation (one clock read per
	// request batch), so the advanced clock is seen by the next pin — as it
	// is by the next request batch in the server.
	p = st.Pin()
	defer p.Unpin()
	if _, ok := st.Get(p, []byte("ttl")); ok {
		t.Fatal("expired item visible")
	}
	if st.Items() != 1 {
		t.Fatalf("corpse not reaped on read: items = %d, want 1", st.Items())
	}
	if _, ok := st.Get(p, []byte("keep")); !ok {
		t.Fatal("live item lost")
	}
	// The reaped block went back to the pool.
	if st.BufStats().Frees == 0 {
		t.Fatal("reaped value block was not freed to the pool")
	}
}

func errOf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// TestWriteTimeoutUnblocksStalledClient: a client that stops reading must
// not hold its connection (and with it the request's epoch pin, which
// gates value-block reclamation for the whole store) forever — the write
// deadline closes the connection.
func TestWriteTimeoutUnblocksStalledClient(t *testing.T) {
	s, err := New(Config{
		Addr:            "127.0.0.1:0",
		Algo:            "ht-clht-lb",
		WriteBufferSize: 1 << 10, // tiny, so responses flush inline
		WriteTimeout:    200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { s.Serve(); close(done) }()
	defer func() { s.Close(); <-done }()

	// Store a value much larger than the write buffer.
	big := bytes.Repeat([]byte("v"), 1<<16)
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Set("big", 0, 0, big); err != nil {
		t.Fatal(err)
	}
	// Raw connection that requests the value repeatedly and never reads:
	// the server's flushes must hit the deadline, not block forever. A
	// small receive buffer, and writing until a write fails rather than a
	// fixed count, keep loopback buffer autotuning from absorbing the
	// responses, so the server's write really blocks.
	raw, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	raw.SetWriteDeadline(time.Now().Add(5 * time.Second))
	reqs := bytes.Repeat([]byte("get big\r\n"), 64)
	for {
		if _, err := raw.Write(reqs); err != nil {
			break // the server closed us, or stopped reading
		}
	}
	// The stalled connection must die, after which the healthy client
	// still gets served (reclamation was not wedged).
	deadline := time.Now().Add(5 * time.Second)
	for s.currConns.Load() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled connection not closed: %d conns", s.currConns.Load())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, ok, err := cl.Get("big"); err != nil || !ok {
		t.Fatalf("healthy client after stall: %v %v", ok, err)
	}
	cl.Close()
}

// TestFailedWriteClosesConnWithPartialFrame: once a response write has
// failed, the connection closes even when half a command line is buffered.
// Without that, the server would wait in the read for the rest of the line
// until the idle timeout (a minute here), serving a peer that reads nothing.
func TestFailedWriteClosesConnWithPartialFrame(t *testing.T) {
	const writeTimeout = 200 * time.Millisecond
	s, err := New(Config{
		Addr:            "127.0.0.1:0",
		Algo:            "ht-clht-lb",
		WriteBufferSize: 1 << 10, // tiny, so responses flush inline
		WriteTimeout:    writeTimeout,
		IdleTimeout:     time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { s.Serve(); close(done) }()
	defer func() { s.Close(); <-done }()

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Set("big", 0, 0, bytes.Repeat([]byte("v"), 256<<10)); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	raw, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	// One multi-get whose 16 MiB response no socket buffer absorbs, so the
	// server's write times out, followed in the same write by half a
	// command line. The server reads both at once: the half line is in its
	// read buffer when the write fails. Then hold the socket, reading
	// nothing.
	req := []byte("get" + strings.Repeat(" big", 64) + "\r\nget bi")
	raw.SetWriteDeadline(time.Now().Add(time.Second))
	if _, err := raw.Write(req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * writeTimeout)
	for s.currConns.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("connection with a failed write still open after %v: %d conns",
				15*writeTimeout, s.currConns.Load())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerScanPathAllocGate is the ordered-scan allocation gate: a
// pipelined mrange — ReadCommandInto → Store.RangeScan → VALUE staging per
// returned key — must not allocate per RESULT KEY. The per-scan cost is a
// small constant (closure captures escaping through the generic range
// layers: rangeBytes → Map.Range → RangeAscend each pin their state on the
// heap), so the gate measures the same scan at two widths and requires the
// identical figure — a per-key allocation would separate them by the width
// difference — plus an absolute cap so the constant cannot quietly grow.
func TestServerScanPathAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, so Pin() itself allocates")
	}
	for _, tc := range []struct {
		algo   string
		shards int
	}{
		{"sl-fraser-opt", 1},
		{"sl-fraser-opt", 4},
		{"ll-lazy", 1},
	} {
		t.Run(fmt.Sprintf("%s/shards-%d", tc.algo, tc.shards), func(t *testing.T) {
			s, err := New(Config{Algo: tc.algo, Shards: tc.shards, Ordered: true})
			if err != nil {
				t.Fatal(err)
			}
			p := s.store.Pin()
			for i := 0; i < 32; i++ {
				s.store.Set(p, []byte(fmt.Sprintf("scan%02d", i)), 7, 0, bytes.Repeat([]byte("v"), 32))
			}
			p.Unpin()
			measure := func(frame string, wantKeys float64) float64 {
				br := bufio.NewReaderSize(&repeatReader{frame: []byte(frame)}, 1<<16)
				bw := newWriter(io.Discard, 0)
				ws := s.acquireWireStats()
				var cmd Command
				var sc Scratch
				step := func() {
					if err := ReadCommandInto(br, DefaultMaxItemSize, &cmd, &sc); err != nil {
						t.Fatal(err)
					}
					p := s.store.Pin()
					s.execute(p, &cmd, bw, ws)
					p.Unpin()
				}
				for i := 0; i < 64; i++ {
					step()
				}
				avg := testing.AllocsPerRun(512, step)
				got := float64(ws.n[cRangeKeys].Load()) / float64(ws.n[cCmdMRange].Load())
				if got != wantKeys {
					t.Fatalf("scan %q returned %.1f keys/scan, want %.0f", frame, got, wantKeys)
				}
				return avg
			}
			// Same request shape, 4 vs 28 in-range keys: the limit never
			// truncates, so every scan stages its full result.
			narrow := measure("mrange scan10 scan13 100\r\n", 4)
			wide := measure("mrange scan02 scan29 100\r\n", 28)
			if narrow != wide {
				t.Fatalf("scan allocations scale with result size: %.2f at 4 keys vs %.2f at 28 keys (want equal — zero per result key)", narrow, wide)
			}
			if wide > 12 {
				t.Fatalf("mrange allocates %.2f/scan, want the O(1) constant <= 12", wide)
			}
		})
	}
}

// TestStoreOverwriteAllocGate: a Store.Set of a key that is already present
// allocates exactly one object — the entry's fresh chain node, published
// copy-on-write through its slot — on the hash headliner and on the ordered
// scan backend; the value block comes back from the shard's pool. A
// Store.Get hit allocates nothing.
func TestStoreOverwriteAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, so Pin() itself allocates")
	}
	for _, tc := range []struct {
		algo    string
		ordered bool
	}{
		{"ht-clht-lb", false},
		{"sl-fraser-opt", true},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			st, err := NewStore(tc.algo, 0, true, 1, tc.ordered)
			if err != nil {
				t.Fatal(err)
			}
			p := st.Pin()
			for i := 0; i < 64; i++ {
				st.Set(p, []byte(fmt.Sprintf("key-%02d", i)), 0, 0, []byte("value"))
			}
			p.Unpin()
			key, val := []byte("key-33"), []byte("fresh")
			set := func() {
				p := st.Pin()
				st.Set(p, key, 7, 0, val)
				p.Unpin()
			}
			for i := 0; i < 64; i++ {
				set() // prime the value pool
			}
			if avg := testing.AllocsPerRun(512, set); avg != 1 {
				t.Fatalf("Store.Set of a present key allocates %.2f/op, want 1", avg)
			}
			var hit bool
			if avg := testing.AllocsPerRun(512, func() {
				p := st.Pin()
				_, hit = st.Get(p, key)
				p.Unpin()
			}); avg != 0 || !hit {
				t.Fatalf("Store.Get hit allocates %.2f/op (hit %v), want 0", avg, hit)
			}
		})
	}
}

// TestStoreValueBlocksOffHeap: pooled value blocks are carved from chunks
// mapped outside the Go heap, so storing 64 MiB of values grows the live
// heap by the keys and items alone, while the same load without pooling
// grows it by at least the values.
func TestStoreValueBlocksOffHeap(t *testing.T) {
	const n, size = 65536, 1024
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	val := bytes.Repeat([]byte("v"), size)
	growth := func(pool bool) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st, err := NewStore("ht-clht-lb", 0, pool, 4, false)
		if err != nil {
			t.Fatal(err)
		}
		p := st.Pin()
		for _, k := range keys {
			st.Set(p, k, 0, 0, val)
		}
		p.Unpin()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if got := st.Items(); got != n {
			t.Fatalf("pool=%v: %d items stored, want %d", pool, got, n)
		}
		st.release()
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	pooled, unpooled := growth(true), growth(false)
	t.Logf("live heap growth for %d MiB of values: pooled %d MiB, unpooled %d MiB", n*size>>20, pooled>>20, unpooled>>20)
	if pooled >= 32<<20 {
		t.Fatalf("pooled: live heap grew %d MiB, want < 32 MiB", pooled>>20)
	}
	if unpooled < 64<<20 {
		t.Fatalf("unpooled: live heap grew %d MiB, want >= 64 MiB", unpooled>>20)
	}
}
