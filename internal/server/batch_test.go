// Tests for the batched execution pipeline: framing equivalence (a batched
// parse is byte-for-byte the serial parse), execution equivalence (a batched
// server answers any pipelined stream with exactly the bytes the per-command
// server would), the single-clock-read invariant, and the SendGet empty-key
// regression.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// --- framing ------------------------------------------------------------

// batchShape is one batch slot flattened for comparison.
type batchShape struct {
	cmd     cmdShape
	errResp string
	fatal   bool
	noReply bool
}

// parseSerial drains a stream through ReadCommandInto, one command at a
// time — the reference sequence.
func parseSerial(data []byte, maxItem, limit int) []batchShape {
	r := newReader(bytes.NewReader(data), 0)
	var out []batchShape
	var cmd Command
	var sc Scratch
	for len(out) < limit {
		err := ReadCommandInto(r, maxItem, &cmd, &sc)
		if err != nil {
			var pe *ProtoError
			if errors.As(err, &pe) {
				out = append(out, batchShape{errResp: pe.Resp, fatal: pe.Fatal, noReply: pe.NoReply})
				if pe.Fatal {
					return out
				}
				continue
			}
			return out
		}
		out = append(out, batchShape{cmd: shapeOf(&cmd)})
	}
	return out
}

// parseBatched drains the same stream through repeated ReadBatchInto calls.
func parseBatched(data []byte, maxItem, maxBatch, limit int) []batchShape {
	r := newReader(bytes.NewReader(data), 0)
	var out []batchShape
	var b Batch
	for len(out) < limit {
		n, err := ReadBatchInto(r, maxItem, maxBatch, &b)
		for i := 0; i < n && len(out) < limit; i++ {
			e := &b.Entries[i]
			if e.Err != nil {
				out = append(out, batchShape{errResp: e.Err.Resp, fatal: e.Err.Fatal, noReply: e.Err.NoReply})
				if e.Err.Fatal {
					return out
				}
			} else {
				out = append(out, batchShape{cmd: shapeOf(&e.Cmd)})
			}
		}
		if err != nil {
			return out
		}
	}
	return out
}

func diffShapes(t *testing.T, serial, batched []batchShape) {
	t.Helper()
	if len(serial) != len(batched) {
		t.Fatalf("serial parsed %d entries, batched %d", len(serial), len(batched))
	}
	for i := range serial {
		s, b := serial[i], batched[i]
		if s.errResp != b.errResp || s.fatal != b.fatal || s.noReply != b.noReply {
			t.Fatalf("entry %d error mismatch: serial %+v, batched %+v", i, s, b)
		}
		if fmt.Sprintf("%+v", s.cmd) != fmt.Sprintf("%+v", b.cmd) {
			t.Fatalf("entry %d command mismatch:\n serial  %+v\n batched %+v", i, s.cmd, b.cmd)
		}
	}
}

// TestReadBatchMatchesSerial: for a representative pipelined stream — every
// verb, noreply forms, recoverable and fatal errors — the batched parse must
// produce exactly the serial parse's entry sequence, at every batch cap.
func TestReadBatchMatchesSerial(t *testing.T) {
	stream := []byte("get a\r\n" +
		"gets a b ccc\r\n" +
		"set k 7 0 5\r\nhello\r\n" +
		"add k 0 0 0\r\n\r\n" +
		"replace k 1 100 3 noreply\r\nxyz\r\n" +
		"cas k 0 0 2 99\r\nhi\r\n" +
		"bogus\r\n" +
		"get\r\n" +
		"delete k noreply\r\n" +
		"incr k 12\r\n" +
		"decr k 1\r\n" +
		"set big 0 0 999999\r\n" + string(bytes.Repeat([]byte("v"), 999999)) + "\r\n" +
		"flush_all 0\r\n" +
		"version\r\n" +
		"set k 0 bad 4\r\nabcd\r\n" + // recoverable: block discarded
		"quit\r\n" +
		"get after-quit\r\n")
	const maxItem = 1 << 16 // makes the 999999-byte set an oversized (recoverable) frame
	serial := parseSerial(stream, maxItem, 100)
	for _, cap := range []int{1, 2, 3, 7, 0} {
		batched := parseBatched(stream, maxItem, cap, 100)
		diffShapes(t, serial, batched)
	}
}

// TestReadBatchDrainsBuffered: with the whole stream buffered, one call
// must drain every complete frame; with the stream cut mid-frame, the batch
// must stop at the incomplete frame instead of blocking on it.
func TestReadBatchDrainsBuffered(t *testing.T) {
	stream := []byte("get a\r\nget b\r\nget c\r\nset k 0 0 3\r\nabc\r\nget d\r\n")
	r := newReader(bytes.NewReader(stream), 0)
	var b Batch
	n, err := ReadBatchInto(r, 0, 0, &b)
	if err != nil || n != 5 {
		t.Fatalf("ReadBatchInto = %d, %v; want all 5 complete frames", n, err)
	}

	// Cut inside the set's data block: the batch must deliver the three
	// complete gets and leave the partial storage frame for the next
	// (blocking) round rather than stalling this one.
	cut := bytes.Index(stream, []byte("abc")) + 1
	half := &halfThenBlockReader{data: stream[:cut]}
	r = newReader(half, 0)
	n, err = ReadBatchInto(r, 0, 0, &b)
	if err != nil || n != 3 {
		t.Fatalf("ReadBatchInto over cut stream = %d, %v; want 3", n, err)
	}
	for i, want := range []string{"a", "b", "c"} {
		if got := string(b.Entries[i].Cmd.Keys[0]); got != want {
			t.Fatalf("entry %d key = %q, want %q", i, got, want)
		}
	}
	if half.blocked.Load() {
		t.Fatal("batch read blocked on the incomplete frame")
	}
}

// halfThenBlockReader serves its data in one read, then records (and fails)
// any further read — the test's stand-in for "would block on the network".
type halfThenBlockReader struct {
	data    []byte
	served  bool
	blocked atomic.Bool
}

func (r *halfThenBlockReader) Read(p []byte) (int, error) {
	if !r.served {
		r.served = true
		return copy(p, r.data), nil
	}
	r.blocked.Store(true)
	return 0, errors.New("unexpected blocking read")
}

// TestBatchShedsDataBuffers: a burst shape that ratchets many slots to
// large values must not pin MaxBatch × large-value bytes per connection —
// between rounds the batch sheds per-slot data buffers beyond the retention
// budget (slot 0, which serves the blocking first frame, is exempt, like
// the per-command path's single retained Scratch).
func TestBatchShedsDataBuffers(t *testing.T) {
	const valLen = 8 << 10
	val := strings.Repeat("v", valLen)
	var stream bytes.Buffer
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&stream, "set k%d 0 0 %d noreply\r\n%s\r\n", i, valLen, val)
	}
	var b Batch
	for round := 0; round < 3; round++ {
		r := newReader(bytes.NewReader(stream.Bytes()), 1<<20)
		for {
			if _, err := ReadBatchInto(r, 0, 0, &b); err != nil {
				break
			}
		}
	}
	b.shedData() // what the next round would do
	retained := int64(0)
	for i, sc := range b.scs {
		if i > 0 {
			retained += int64(cap(sc.dataBuf))
		}
	}
	// The budget plus at most one slot's overshoot.
	if max := int64(batchDataRetention + valLen); retained > max {
		t.Fatalf("non-first slots retain %d bytes of data buffers, want <= %d", retained, max)
	}
}

// FuzzReadBatch is FuzzReadCommand's differential sibling: for arbitrary
// bytes, the batched parse must equal the serial parse entry by entry —
// same commands, same recoverable errors in the same order, same fatal
// truncation point — at several batch caps.
func FuzzReadBatch(f *testing.F) {
	f.Add([]byte("get foo bar\r\nget baz\r\n"))
	f.Add([]byte("set k 7 0 5\r\nhello\r\nget k\r\nget k2\r\n"))
	f.Add([]byte("cas k 0 0 2 99\r\nhi\r\nbogus\r\ndelete k\r\n"))
	f.Add([]byte("incr k 123\r\ndecr k 1 noreply\r\nquit\r\nget x\r\n"))
	f.Add([]byte("set k 0 0 1000000\r\nget a\r\n"))
	f.Add([]byte("\x00\xff\r\n\r\nget\r\nflush_all 0\r\n"))
	f.Add([]byte("mrange a z 10\r\nmmin\r\nmmax\r\nmrange z a 1\r\n"))
	f.Add([]byte("mrange a z 0\r\nmrange a\r\nset k 0 0 2\r\nhi\r\nmrange k k 1\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxItem = 1 << 16
		serial := parseSerial(data, maxItem, 200)
		for _, cap := range []int{1, 3, 0} {
			batched := parseBatched(data, maxItem, cap, 200)
			diffShapes(t, serial, batched)
		}
	})
}

// --- execution ----------------------------------------------------------

// collectResponses boots a server with the given batching cap, feeds it the
// raw stream over TCP (in chunks, exercising batch boundaries at arbitrary
// frame cuts), and returns every response byte until the server closes the
// connection (the streams end in quit or a fatal error).
func collectResponses(t *testing.T, algo string, shards, maxBatch int, stream []byte, chunk int) []byte {
	t.Helper()
	s, err := New(Config{Addr: "127.0.0.1:0", Algo: algo, Shards: shards, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { s.Serve(); close(done) }()
	defer func() { s.Close(); <-done }()

	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			if _, err := c.Write(stream[off:end]); err != nil {
				return
			}
		}
	}()
	out, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("reading responses: %v", err)
	}
	return out
}

// genStream builds a randomized pipelined command stream: mixed verbs over a
// small hot keyspace, noreply forms, expired stores, flush_all, and
// malformed frames mid-batch. Everything emitted is deterministic to
// execute (no stats/uptime, no wall-clock-sensitive expiry), so two servers
// fed the same stream must answer identically byte for byte.
//
// getHeavy switches to streams made of long runs of get, gets and
// multi-key gets (the runs the server stages as one lookup), each run
// broken by a set or delete of a key it just read, an already-expired
// store, a flush_all, or a keyless get (an error entry).
func genStream(rng *xrand.State, n int, withFatal, getHeavy bool) []byte {
	var b strings.Builder
	key := func() string { return fmt.Sprintf("k%d", rng.Uint64n(24)) }
	noreply := func() string {
		if rng.Uint64n(4) == 0 {
			return " noreply"
		}
		return ""
	}
	if getHeavy {
		genGetRuns(&b, rng, n, key)
		n = 0
	}
	for i := 0; i < n; i++ {
		switch rng.Uint64n(12) {
		case 0, 1, 2:
			fmt.Fprintf(&b, "get %s\r\n", key())
		case 3:
			fmt.Fprintf(&b, "gets %s %s %s\r\n", key(), key(), key())
		case 4, 5:
			val := strings.Repeat("v", int(rng.Uint64n(80)))
			fmt.Fprintf(&b, "set %s %d 0 %d%s\r\n%s\r\n", key(), rng.Uint64n(100), len(val), noreply(), val)
		case 6:
			fmt.Fprintf(&b, "add %s 0 0 2%s\r\nhi\r\n", key(), noreply())
		case 7:
			fmt.Fprintf(&b, "replace %s 0 -1 2\r\nxx\r\n", key()) // stored already expired
		case 8:
			fmt.Fprintf(&b, "cas %s 0 0 2 %d\r\nok\r\n", key(), rng.Uint64n(64))
		case 9:
			fmt.Fprintf(&b, "delete %s%s\r\n", key(), noreply())
		case 10:
			if rng.Uint64n(2) == 0 {
				fmt.Fprintf(&b, "incr %s %d\r\n", key(), rng.Uint64n(1000))
			} else {
				fmt.Fprintf(&b, "decr %s 1%s\r\n", key(), noreply())
			}
		case 11:
			// Protocol noise, recoverable: an unknown verb, a keyless
			// get, a malformed (but size-parseable) storage line whose
			// block must be swallowed, or a flush_all.
			switch rng.Uint64n(4) {
			case 0:
				b.WriteString("bogus line\r\n")
			case 1:
				b.WriteString("get\r\n")
			case 2:
				fmt.Fprintf(&b, "set %s 0 notanumber 3%s\r\nxyz\r\n", key(), noreply())
			case 3:
				b.WriteString("flush_all 0\r\n")
			}
		}
	}
	if withFatal {
		// A storage line whose size field cannot be parsed is fatal: both
		// servers must truncate the stream at exactly this point.
		b.WriteString("set k 0 0 nosize\r\n")
	}
	b.WriteString("quit\r\n")
	return []byte(b.String())
}

// genGetRuns writes genStream's get-heavy body: n commands, nearly all of
// them reads, so most batches hold runs of dozens of gets.
func genGetRuns(b *strings.Builder, rng *xrand.State, n int, key func() string) {
	last := key() // a key the current run has read
	for i := 0; i < n; i++ {
		verb := "get"
		if rng.Uint64n(3) == 0 {
			verb = "gets"
		}
		switch r := rng.Uint64n(64); {
		case r < 34:
			last = key()
			fmt.Fprintf(b, "%s %s\r\n", verb, last)
		case r < 52:
			b.WriteString(verb)
			for j := 1 + rng.Uint64n(20); j > 0; j-- {
				last = key()
				b.WriteString(" " + last)
			}
			b.WriteString("\r\n")
		case r < 58:
			val := strings.Repeat("w", int(rng.Uint64n(40)))
			fmt.Fprintf(b, "set %s %d 0 %d\r\n%s\r\n", last, rng.Uint64n(100), len(val), val)
		case r < 60:
			fmt.Fprintf(b, "delete %s\r\n", last)
		case r < 61:
			fmt.Fprintf(b, "set %s 0 -1 2\r\nxx\r\n", key()) // stored already expired
		case r < 63:
			b.WriteString("get\r\n")
		case rng.Uint64n(2) == 0:
			b.WriteString("flush_all 0\r\n")
		}
	}
}

// TestBatchedExecutionMatchesSerial is the PR's differential gate: for
// randomized pipelined streams, a batching server must produce responses
// byte-identical to the per-command (MaxBatch 1) server — same hits, same
// CAS tokens, same error lines, same noreply suppression, same truncation
// on fatal errors — across the servable backends the CI smoke uses, at
// several shard counts and write chunkings.
func TestBatchedExecutionMatchesSerial(t *testing.T) {
	cases := []struct {
		algo   string
		shards int
	}{
		{"ht-clht-lb", 1},
		{"ll-lazy", 4},
		{"sl-fraser-opt", 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%d", tc.algo, tc.shards), func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				// Seeds 5-8 are get-heavy: long staged runs.
				heavy := seed > 4
				n := 150
				if heavy {
					n = 400
				}
				rng := xrand.New(seed)
				stream := genStream(rng, n, seed%4 == 0, heavy)
				// Serial reference: one whole-stream write. Batched: both
				// a whole-stream write (maximal batches) and a dribbled
				// one (batch boundaries land mid-frame).
				want := collectResponses(t, tc.algo, tc.shards, 1, stream, len(stream))
				for _, chunk := range []int{len(stream), 501} {
					got := collectResponses(t, tc.algo, tc.shards, 0, stream, chunk)
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d chunk %d: batched responses differ from serial\nserial  (%d bytes): %q\nbatched (%d bytes): %q",
							seed, chunk, len(want), want, len(got), got)
					}
				}
			}
		})
	}
}

// --- clocks -------------------------------------------------------------

// TestBatchSingleClockRead asserts the amortization the profile used to
// disprove: one pinned batch — however many commands, gets, mutations, and
// reaps it contains — reads the store clock exactly once, at Pin(). (The
// wire benchmarks in wire_bench_test.go are the profile-level view; this
// pins the invariant exactly.)
func TestBatchSingleClockRead(t *testing.T) {
	s, err := New(Config{Algo: "ht-clht-lb", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	base := time.Now().Unix()
	s.store.now = func() int64 { reads.Add(1); return base }

	// A burst with every command class, including an expired-item reap.
	p := s.store.Pin()
	s.store.Set(p, []byte("dead"), 0, -1, []byte("x"))
	p.Unpin()
	reads.Store(0)

	var stream bytes.Buffer
	stream.WriteString("get dead\r\n") // hits the reap path
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&stream, "get k%d\r\n", i%8)
	}
	stream.WriteString("set k0 0 100 2\r\nhi\r\nincr n 1\r\ndelete k1\r\nget k0 k2 k3\r\n")
	br := bufio.NewReaderSize(bytes.NewReader(stream.Bytes()), 1<<16)
	var b Batch
	n, err := ReadBatchInto(br, 0, 0, &b)
	if err != nil || n != 45 {
		t.Fatalf("batch = %d, %v; want 45", n, err)
	}
	bw := newWriter(io.Discard, 0)
	s.executeBatch(&b, bw, s.acquireWireStats())
	if got := reads.Load(); got != 1 {
		t.Fatalf("a %d-command batch read the clock %d times, want exactly 1", n, got)
	}
}

// --- client -------------------------------------------------------------

// TestClientSendGetNoKeys is the SendGet regression test: an empty key list
// must be rejected before anything hits the wire (it used to emit a bare
// "get\r\n" malformed frame), and the connection must stay usable.
func TestClientSendGetNoKeys(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", Algo: "ht-clht-lb"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { s.Serve(); close(done) }()
	defer func() { s.Close(); <-done }()

	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendGet(false); err == nil {
		t.Fatal("SendGet with no keys did not error")
	}
	if _, err := c.GetMulti(); err == nil {
		t.Fatal("GetMulti with no keys did not error")
	}
	// Nothing malformed was written: the connection still serves.
	if err := c.Set("k", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if e, ok, err := c.Get("k"); err != nil || !ok || string(e.Data) != "v" {
		t.Fatalf("connection unusable after rejected SendGet: %v %v %q", ok, err, e.Data)
	}
	if t0 := s.wireTotals(); t0.n[cProtoErrors] != 0 {
		t.Fatalf("server saw %d protocol errors", t0.n[cProtoErrors])
	}
}
