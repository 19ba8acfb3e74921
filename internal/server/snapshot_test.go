package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// ---------------------------------------------------------------------------
// The linearizable-cut differential: snapshot while writers churn, then
// prove every recovered record was its key's live value at some instant
// inside the snapshot window — no ghost keys, no resurrected values, no
// expired items.
//
// The oracle construction: each key is owned by exactly one writer, so its
// operation history is an exact sequence. Every operation records a
// conservative interval [t0, t1] (clock read before issue and after
// completion) containing its linearization point. The value stored by set
// number j on a key is therefore possibly visible from ops[j].t0 until
// ops[j+1].t1 (the next operation's latest possible linearization), or
// forever if none follows. A snapshot taken over [snapStart, snapEnd]
// observes each key at one instant inside that window, so:
//
//   - soundness: a recovered value must be some set in its key's history
//     whose possible-visibility interval intersects the window;
//   - completeness: a value definitely visible across the WHOLE window
//     (its set completed before snapStart, the next operation — if any —
//     began after snapEnd) must be recovered;
//   - expiry: a set issued already-expired (negative exptime) is dead from
//     birth and must never be recovered, though it still terminates the
//     previous value's visibility.
// ---------------------------------------------------------------------------

type snapOpKind uint8

const (
	opSet snapOpKind = iota
	opDel
	opExpSet // set with already-past expiry: terminates visibility, value never live
)

type snapOp struct {
	kind   snapOpKind
	seq    int   // value identity for sets
	t0, t1 int64 // conservative interval containing the linearization point
}

func snapKey(w, k int) string { return fmt.Sprintf("snapk-w%d-k%03d", w, k) }

func snapVal(seq int) []byte { return []byte(fmt.Sprintf("s%08d-payloadpayload", seq)) }

func TestSnapshotLinearizableCutDifferential(t *testing.T) {
	for _, algo := range []string{"ht-clht-lb", "ll-lazy", "sl-fraser-opt"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				runSnapshotDifferential(t, algo, shards)
			})
		}
	}
}

func runSnapshotDifferential(t *testing.T, algo string, shards int) {
	const (
		writers    = 3
		keysPer    = 48
		churnFor   = 25 * time.Millisecond
		settleTime = 10 * time.Millisecond
	)
	st, err := NewStore(algo, 1<<12, true, shards, false)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	mono := func() int64 { return int64(time.Since(base)) }

	hist := make([][][]snapOp, writers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		hist[w] = make([][]snapOp, keysPer)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(0x9E3779B97F4A7C15 * uint64(w+1))
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			seq := 0
			for !stop.Load() {
				k := int(next() % keysPer)
				kind := opSet
				switch next() % 10 {
				case 0, 1:
					kind = opDel
				case 2:
					kind = opExpSet
				}
				seq++
				key := []byte(snapKey(w, k))
				t0 := mono()
				p := st.Pin()
				switch kind {
				case opSet:
					st.Set(p, key, 0, 0, snapVal(seq))
				case opExpSet:
					st.Set(p, key, 0, -1, snapVal(seq))
				case opDel:
					st.Delete(p, key)
				}
				p.Unpin()
				t1 := mono()
				hist[w][k] = append(hist[w][k], snapOp{kind: kind, seq: seq, t0: t0, t1: t1})
			}
		}(w)
	}

	// Let histories build, then take the cut mid-churn.
	time.Sleep(churnFor)
	var buf bytes.Buffer
	snapStart := mono()
	items, err := st.SnapshotTo(&buf)
	snapEnd := mono()
	if err != nil {
		t.Fatalf("SnapshotTo: %v", err)
	}
	time.Sleep(settleTime) // churn continues past the cut on purpose
	stop.Store(true)
	wg.Wait()

	// Index the snapshot's records straight off the file bytes.
	recovered := map[string]string{}
	sr, err := snapshot.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		key := string(rec.Key)
		if _, dup := recovered[key]; dup {
			t.Fatalf("key %q appears twice in the snapshot", key)
		}
		recovered[key] = string(rec.Data)
	}
	if uint64(len(recovered)) != items {
		t.Fatalf("SnapshotTo reported %d items, file holds %d", items, len(recovered))
	}

	// Soundness: every recovered (key, value) was possibly live at some
	// instant inside [snapStart, snapEnd].
	for key, val := range recovered {
		var w, k int
		if _, err := fmt.Sscanf(key, "snapk-w%d-k%03d", &w, &k); err != nil || w >= writers || k >= keysPer {
			t.Fatalf("ghost key %q recovered (never written)", key)
		}
		var seq int
		if _, err := fmt.Sscanf(val, "s%08d", &seq); err != nil {
			t.Fatalf("key %q recovered with unparseable value %q", key, val)
		}
		ops := hist[w][k]
		idx := -1
		for i, op := range ops {
			if op.seq == seq {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Fatalf("key %q recovered value seq %d that was never written", key, seq)
		}
		op := ops[idx]
		if op.kind != opSet {
			t.Fatalf("key %q recovered value of a %v operation (seq %d) — an expired or deleted write surfaced", key, op.kind, seq)
		}
		if string(snapVal(seq)) != val {
			t.Fatalf("key %q value corrupted: %q", key, val)
		}
		visEnd := int64(1<<62 - 1)
		if idx+1 < len(ops) {
			visEnd = ops[idx+1].t1
		}
		if op.t0 > snapEnd || visEnd < snapStart {
			t.Fatalf("key %q recovered seq %d visible only [%d,%d], outside snapshot window [%d,%d]",
				key, seq, op.t0, visEnd, snapStart, snapEnd)
		}
	}

	// Completeness: a value definitely live across the whole window must
	// be in the cut.
	definite := 0
	for w := 0; w < writers; w++ {
		for k := 0; k < keysPer; k++ {
			ops := hist[w][k]
			for i, op := range ops {
				if op.kind != opSet || op.t1 >= snapStart {
					continue
				}
				if i+1 < len(ops) && ops[i+1].t0 <= snapEnd {
					continue // a later op may have landed inside the window
				}
				definite++
				key := snapKey(w, k)
				got, ok := recovered[key]
				if !ok {
					t.Fatalf("key %s definitely live across the window (seq %d) but missing from the snapshot", key, op.seq)
				}
				if got != string(snapVal(op.seq)) {
					t.Fatalf("key %s definitely held seq %d across the window, snapshot has %q", key, op.seq, got)
				}
			}
		}
	}

	// The differential needs real churn to mean anything: the cut must
	// contain something, and some keys must have been definitely stable.
	if len(recovered) == 0 {
		t.Fatal("vacuous run: empty snapshot")
	}
	if definite == 0 {
		t.Log("note: no definitely-stable keys this run (all churned mid-window)")
	}

	// And the file must rebuild a working store: every recovered key gets
	// its recovered value back through the public read path.
	st2, err := NewStore(algo, 1<<12, true, shards, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st2.LoadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if res.Loaded != uint64(len(recovered)) || res.Expired != 0 {
		t.Fatalf("LoadFrom: loaded %d expired %d, want %d/0", res.Loaded, res.Expired, len(recovered))
	}
	p := st2.Pin()
	defer p.Unpin()
	for key, val := range recovered {
		it, ok := st2.Get(p, []byte(key))
		if !ok || string(it.Data) != val {
			t.Fatalf("restored store: key %q = %q, %v; want %q", key, it.Data, ok, val)
		}
	}
	if st2.Items() != len(recovered) {
		t.Fatalf("restored store has %d items, want %d", st2.Items(), len(recovered))
	}
}

// ---------------------------------------------------------------------------
// Satellite: expiry oracle on load — records already expired at load time
// are dead on arrival: never inserted, never charged to loaded, and gone
// from the read path without reaper involvement.
// ---------------------------------------------------------------------------

func TestSnapshotExpiryOracleOnLoad(t *testing.T) {
	// Build a snapshot stream by hand with a frozen clock.
	const nowUnix = 1_754_000_000
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshot.Header{Algo: "ht-clht-lb", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		key      string
		expireAt int64
		live     bool
	}
	cases := []tc{
		{"never-expires", 0, true},
		{"future", nowUnix + 1000, true},
		{"boundary-now", nowUnix, false},       // ExpireAt <= now is dead
		{"long-dead", nowUnix - 86_400, false}, // expired a day before boot
		{"just-dead", nowUnix - 1, false},
		{"far-future", nowUnix + 30*86_400, true},
	}
	for _, c := range cases {
		if err := w.Add([]byte(c.key), 7, c.expireAt, []byte("v-"+c.key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := NewStore("ht-clht-lb", 1<<10, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	st.now = func() int64 { return nowUnix }

	res, err := st.LoadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantLive, wantDead := 0, 0
	for _, c := range cases {
		if c.live {
			wantLive++
		} else {
			wantDead++
		}
	}
	if res.Loaded != uint64(wantLive) || res.Expired != uint64(wantDead) {
		t.Fatalf("LoadFrom: loaded=%d expired=%d, want %d/%d", res.Loaded, res.Expired, wantLive, wantDead)
	}
	// The dead records were never inserted — not "inserted then reaped":
	// the store's item count says so directly (Items counts even
	// not-yet-collected expired entries).
	if st.Items() != wantLive {
		t.Fatalf("Items() = %d, want %d (expired records must never be inserted)", st.Items(), wantLive)
	}
	p := st.Pin()
	defer p.Unpin()
	for _, c := range cases {
		it, ok := st.Get(p, []byte(c.key))
		if ok != c.live {
			t.Fatalf("Get(%q) present=%v, want %v", c.key, ok, c.live)
		}
		if c.live {
			if string(it.Data) != "v-"+c.key || it.Flags != 7 || it.ExpireAt != c.expireAt {
				t.Fatalf("Get(%q) = %+v: flags/expiry must survive the restart byte-for-byte", c.key, it)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Satellite: TTLs survive restart as absolute wallclock — an item stored
// with a relative exptime keeps its original deadline through
// snapshot/restore, rather than getting a fresh lease.
// ---------------------------------------------------------------------------

func TestSnapshotTTLAbsoluteAcrossRestart(t *testing.T) {
	clock := int64(1_754_000_000)
	st, err := NewStore("ht-clht-lb", 1<<10, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	st.now = func() int64 { return clock }
	p := st.Pin()
	st.Set(p, []byte("ttl"), 0, 100, []byte("v")) // expires at clock+100
	p.Unpin()

	var buf bytes.Buffer
	if _, err := st.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}

	// Restart 60 "seconds" later: 40 seconds of TTL must remain.
	st2, err := NewStore("ht-clht-lb", 1<<10, true, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	clock2 := clock + 60
	st2.now = func() int64 { return clock2 }
	if _, err := st2.LoadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	p2 := st2.Pin()
	if _, ok := st2.Get(p2, []byte("ttl")); !ok {
		t.Fatal("item should still be live 60s after store (TTL 100s)")
	}
	p2.Unpin()
	clock2 = clock + 101
	p3 := st2.Pin()
	if _, ok := st2.Get(p3, []byte("ttl")); ok {
		t.Fatal("item must expire at its ORIGINAL absolute deadline, not restart+100")
	}
	p3.Unpin()
}

// ---------------------------------------------------------------------------
// Server-level: msnap over the wire, warm boot, shutdown snapshot, corrupt
// file boot, and the post-mortem stats line.
// ---------------------------------------------------------------------------

func startSnapServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServerMSnapWarmBoot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.db")
	s1 := startSnapServer(t, Config{Algo: "ht-clht-lb", SnapshotPath: path})

	c, err := Dial(s1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := c.Set(fmt.Sprintf("key-%04d", i), uint32(i), 0, []byte(fmt.Sprintf("val-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.MSnap(); err != nil {
		t.Fatalf("msnap: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["snapshot_items"] != fmt.Sprint(n) || st["snapshots_taken"] != "1" || st["snapshot_errors"] != "0" {
		t.Fatalf("stats after msnap: items=%s taken=%s errs=%s", st["snapshot_items"], st["snapshots_taken"], st["snapshot_errors"])
	}
	if st["snapshot_last_unix"] == "0" || st["snapshot_bytes"] == "0" {
		t.Fatalf("stats after msnap: last=%s bytes=%s", st["snapshot_last_unix"], st["snapshot_bytes"])
	}
	c.Close()
	// Hard close — no drain, no final snapshot — simulating a kill. The
	// msnap file alone must warm the next boot.
	s1.Close()

	s2 := startSnapServer(t, Config{Algo: "ht-clht-lb", SnapshotPath: path})
	c2, err := Dial(s2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2["loaded_items"] != fmt.Sprint(n) {
		t.Fatalf("warm boot loaded_items = %s, want %d", st2["loaded_items"], n)
	}
	if st2["curr_items"] != fmt.Sprint(n) {
		t.Fatalf("warm boot curr_items = %s, want %d", st2["curr_items"], n)
	}
	for _, i := range []int{0, 7, 123, n - 1} {
		e, ok, err := c2.Get(fmt.Sprintf("key-%04d", i))
		if err != nil || !ok || string(e.Data) != fmt.Sprintf("val-%04d", i) || e.Flags != uint32(i) {
			t.Fatalf("warm boot get key-%04d = %+v ok=%v err=%v", i, e, ok, err)
		}
	}
}

func TestServerMSnapDisabled(t *testing.T) {
	s := startSnapServer(t, Config{Algo: "ht-clht-lb"})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.MSnap()
	if err == nil || !strings.Contains(err.Error(), "snapshot disabled") {
		t.Fatalf("msnap on snapshot-less server: %v", err)
	}
	// The connection survives the refusal.
	if err := c.Set("k", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestServerShutdownFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.db")
	s1 := startSnapServer(t, Config{Algo: "sl-fraser-opt", Ordered: true, SnapshotPath: path})
	c, err := Dial(s1.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Set(fmt.Sprintf("key-%04d", i), 0, 0, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// No msnap was ever issued: the file exists purely because Shutdown
	// takes the final cut.
	hdr, items, err := snapshot.VerifyFile(path)
	if err != nil {
		t.Fatalf("final snapshot invalid: %v", err)
	}
	if items != 100 || hdr.Algo != "sl-fraser-opt" || !hdr.Ordered {
		t.Fatalf("final snapshot: items=%d hdr=%+v", items, hdr)
	}

	s2 := startSnapServer(t, Config{Algo: "sl-fraser-opt", Ordered: true, SnapshotPath: path})
	if got := s2.StatsMap()["loaded_items"]; got != "100" {
		t.Fatalf("warm boot after Shutdown: loaded_items = %s", got)
	}
}

func TestServerBootFromCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.db")
	if err := os.WriteFile(path, []byte("this is not a snapshot file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs []string
	var mu sync.Mutex
	s := startSnapServer(t, Config{Algo: "ht-clht-lb", SnapshotPath: path, Logf: func(f string, a ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(f, a...))
		mu.Unlock()
	}})
	// Boots empty, serves, and logged loudly.
	st := s.StatsMap()
	if st["loaded_items"] != "0" || st["curr_items"] != "0" || st["snapshot_errors"] != "1" {
		t.Fatalf("corrupt boot: loaded=%s curr=%s errs=%s", st["loaded_items"], st["curr_items"], st["snapshot_errors"])
	}
	mu.Lock()
	joined := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(joined, "SNAPSHOT REJECTED") {
		t.Fatalf("corrupt snapshot not logged loudly: %q", joined)
	}
	// The damaged file is left in place for the operator...
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("corrupt file was removed: %v", err)
	}
	// ...and the server still serves and can replace it with a good one.
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.MSnap(); err != nil {
		t.Fatal(err)
	}
	if _, items, err := snapshot.VerifyFile(path); err != nil || items != 1 {
		t.Fatalf("msnap over corrupt file: items=%d err=%v", items, err)
	}
}

// TestServerBootFromDamagedSnapshotTail pins the all-or-nothing boot where
// it is hardest to keep: the damage sits after whole blocks of valid
// records, so a loader that inserts as it reads has already stored some of
// them when it meets the fault. Every boot must still end empty, counted,
// logged, with the file untouched and the server serving.
func TestServerBootFromDamagedSnapshotTail(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.db")
	src := startSnapServer(t, Config{Algo: "ht-clht-lb", Shards: 2, SnapshotPath: good})
	val := bytes.Repeat([]byte("v"), 1024)
	p := src.Store().Pin()
	for i := 0; i < 2000; i++ {
		src.Store().Set(p, []byte(fmt.Sprintf("key-%05d", i)), 0, 0, val)
	}
	p.Unpin()
	if _, _, err := src.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	src.Close()
	b, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	// The file ends: last block payload | terminator (4) | items (8) | file CRC (4).
	damage := map[string]func([]byte) []byte{
		"truncated-mid-block": func(b []byte) []byte { return b[:len(b)*3/4] },
		"flipped-last-block": func(b []byte) []byte {
			b[len(b)-16-10] ^= 0x40
			return b
		},
		"tampered-count": func(b []byte) []byte {
			b[len(b)-12]++
			return b
		},
	}
	for name, fn := range damage {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".db")
			bad := fn(append([]byte(nil), b...))
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			var logs []string
			var mu sync.Mutex
			s := startSnapServer(t, Config{Algo: "ht-clht-lb", Shards: 2, SnapshotPath: path, Logf: func(f string, a ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(f, a...))
				mu.Unlock()
			}})
			st := s.StatsMap()
			if st["loaded_items"] != "0" || st["curr_items"] != "0" || st["snapshot_errors"] != "1" {
				t.Fatalf("damaged boot: loaded=%s curr=%s errs=%s", st["loaded_items"], st["curr_items"], st["snapshot_errors"])
			}
			mu.Lock()
			joined := strings.Join(logs, "\n")
			mu.Unlock()
			if !strings.Contains(joined, "SNAPSHOT REJECTED") {
				t.Fatalf("damaged snapshot not logged loudly: %q", joined)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, bad) {
				t.Fatalf("damaged file was changed (err=%v)", err)
			}
			c, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Set("k", 0, 0, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if e, ok, err := c.Get("k"); err != nil || !ok || string(e.Data) != "v" {
				t.Fatalf("get after damaged boot: %+v ok=%v err=%v", e, ok, err)
			}
			if _, ok, err := c.Get("key-00000"); err != nil || ok {
				t.Fatalf("a record of the damaged file is served (ok=%v err=%v)", ok, err)
			}
		})
	}
}

func TestServerBackgroundSnapshotTicker(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.db")
	s := startSnapServer(t, Config{Algo: "ht-clht-lb", SnapshotPath: path, SnapshotInterval: 20 * time.Millisecond})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.StatsMap(); st["snapshots_taken"] != "0" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background ticker never snapshotted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, err := snapshot.VerifyFile(path); err != nil {
		t.Fatalf("ticker snapshot invalid: %v", err)
	}
	// Close stops the ticker goroutine (stopSnapshotLoop waits for it).
	s.Close()
}

// TestServerFinalStatsEmitted is the satellite moved-emission proof: the
// post-mortem line comes from the server itself on Close, so embedded and
// test users get it without cmd/ascyserve's signal path — and it carries
// the snapshot fields.
func TestServerFinalStatsEmitted(t *testing.T) {
	dir := t.TempDir()
	var logs []string
	var mu sync.Mutex
	s := startSnapServer(t, Config{Algo: "ht-clht-lb", SnapshotPath: filepath.Join(dir, "snap.db"), Logf: func(f string, a ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(f, a...))
		mu.Unlock()
	}})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Set("k", 0, 0, []byte("v"))
	c.MSnap()
	c.Close()
	s.Close()
	s.Close() // idempotent: the line must not repeat

	mu.Lock()
	defer mu.Unlock()
	count := 0
	var line string
	for _, l := range logs {
		if strings.Contains(l, "final stats:") {
			count++
			line = l
		}
	}
	if count != 1 {
		t.Fatalf("final stats emitted %d times, want 1: %q", count, logs)
	}
	for _, field := range []string{"conns=", "sets=", "panics=", "snapshots=1", "loaded_items=0"} {
		if !strings.Contains(line, field) {
			t.Fatalf("final stats line missing %q: %q", field, line)
		}
	}
}

// ---------------------------------------------------------------------------
// Skipping the unchanged snapshot: Shutdown and the ticker leave the file
// alone while no shard changed since it was written or loaded, and write
// after any change, failure, or outside interference.
// ---------------------------------------------------------------------------

// shutdownServer drains s within five seconds.
func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// statFile stats path or fails the test.
func statFile(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// sameFile reports whether a and b are one inode with one modification
// time: a file no write has replaced or touched in between.
func sameFile(a, b os.FileInfo) bool { return os.SameFile(a, b) && a.ModTime().Equal(b.ModTime()) }

// seededSnapServer boots a snapshotting server, stores key-0..key-9 (with
// numeric values, for incr) and cuts one msnap.
func seededSnapServer(t *testing.T, path string) (*Server, *Client) {
	t.Helper()
	s := startSnapServer(t, Config{Algo: "ht-clht-lb", Shards: 4, SnapshotPath: path})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for i := 0; i < 10; i++ {
		if err := c.Set(fmt.Sprintf("key-%d", i), 0, 0, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.MSnap(); err != nil {
		t.Fatal(err)
	}
	return s, c
}

func TestServerSnapshotSkipAfterMSnap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.db")
	s, _ := seededSnapServer(t, path)
	before := statFile(t, path)
	shutdownServer(t, s)
	if !sameFile(before, statFile(t, path)) {
		t.Fatal("Shutdown right after msnap rewrote the file")
	}
	if got := s.StatsMap()["snapshots_taken"]; got != "1" {
		t.Fatalf("snapshots_taken = %s after msnap and an unchanged Shutdown, want 1", got)
	}
	// The same holds for a server that booted from the file and wrote
	// nothing: the boot load vouches for the file as a write would.
	s2 := startSnapServer(t, Config{Algo: "ht-clht-lb", Shards: 4, SnapshotPath: path})
	if got := s2.StatsMap()["loaded_items"]; got != "10" {
		t.Fatalf("warm boot loaded_items = %s, want 10", got)
	}
	shutdownServer(t, s2)
	if !sameFile(before, statFile(t, path)) {
		t.Fatal("Shutdown of an unchanged warm-booted server rewrote the file")
	}
	if got := s2.StatsMap()["snapshots_taken"]; got != "0" {
		t.Fatalf("snapshots_taken = %s, want 0", got)
	}
}

func TestServerSnapshotSkipRewritesAfterWrite(t *testing.T) {
	for name, write := range map[string]func(*Client) error{
		"set":         func(c *Client) error { return c.Set("key-new", 0, 0, []byte("v")) },
		"delete":      func(c *Client) error { _, err := c.Delete("key-3"); return err },
		"incr":        func(c *Client) error { _, _, err := c.Incr("key-4", 1); return err },
		"flush_all 0": func(c *Client) error { return c.FlushAll() },
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "snap.db")
			s, c := seededSnapServer(t, path)
			before := statFile(t, path)
			if err := write(c); err != nil {
				t.Fatal(err)
			}
			shutdownServer(t, s)
			if sameFile(before, statFile(t, path)) {
				t.Fatalf("Shutdown after %s left the msnap file in place", name)
			}
			if got := s.StatsMap()["snapshots_taken"]; got != "2" {
				t.Fatalf("snapshots_taken = %s, want 2", got)
			}
		})
	}
}

// TestServerSnapshotSkipDelayedFlush: a flush_all epoch still in the future
// changes what the store serves without a write, so a snapshot cut before
// it must not leave the store clean.
func TestServerSnapshotSkipDelayedFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.db")
	var clock atomic.Int64
	clock.Store(time.Now().Unix())
	s, err := New(Config{Algo: "ht-clht-lb", Shards: 2, Addr: "127.0.0.1:0", SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.store.now = clock.Load
	t.Cleanup(func() { s.Close() })
	st := s.Store()
	p := st.Pin()
	for i := 0; i < 10; i++ {
		st.Set(p, []byte(fmt.Sprintf("key-%d", i)), 0, 0, []byte("v"))
	}
	st.FlushAll(p, 100)
	p.Unpin()
	if _, _, err := s.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	if st.clean() {
		t.Fatal("a snapshot cut before a pending flush_all epoch left the store clean")
	}
	before := statFile(t, path)
	clock.Add(101)
	shutdownServer(t, s)
	if sameFile(before, statFile(t, path)) {
		t.Fatal("Shutdown after the flush epoch passed left the pre-flush file in place")
	}
	s2 := startSnapServer(t, Config{Algo: "ht-clht-lb", Shards: 2, SnapshotPath: path})
	if got := s2.StatsMap()["loaded_items"]; got != "0" {
		t.Fatalf("warm boot after the flush loaded %s items, want 0", got)
	}
	c, err := Dial(s2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok, err := c.Get("key-0"); err != nil || ok {
		t.Fatalf("a flushed key is served after the warm boot (ok=%v err=%v)", ok, err)
	}
}

// TestServerSnapshotSkipIdleTicker: the ticker writes the first change and
// then nothing until the next one.
func TestServerSnapshotSkipIdleTicker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.db")
	s := startSnapServer(t, Config{Algo: "ht-clht-lb", SnapshotPath: path, SnapshotInterval: 10 * time.Millisecond})
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitTaken := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.StatsMap()["snapshots_taken"] != want {
			if time.Now().After(deadline) {
				t.Fatalf("snapshots_taken never reached %s", want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := c.Set("k", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitTaken("1")
	time.Sleep(150 * time.Millisecond) // fifteen idle ticks
	if got := s.StatsMap()["snapshots_taken"]; got != "1" {
		t.Fatalf("idle ticker kept writing: snapshots_taken = %s, want 1", got)
	}
	if err := c.Set("k2", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitTaken("2")
}

// TestServerSnapshotSkipFailedWrite: a snapshot that fails leaves the store
// dirty, so the next attempt writes.
func TestServerSnapshotSkipFailedWrite(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snap.db")
	s, c := seededSnapServer(t, path)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := c.MSnap(); err == nil {
		t.Fatal("msnap into a removed directory succeeded")
	}
	if s.Store().clean() {
		t.Fatal("a failed snapshot left the store clean")
	}
	if got := s.StatsMap()["snapshot_errors"]; got != "1" {
		t.Fatalf("snapshot_errors = %s, want 1", got)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	shutdownServer(t, s)
	if _, items, err := snapshot.VerifyFile(path); err != nil || items != 10 {
		t.Fatalf("Shutdown after a failed snapshot: items=%d err=%v", items, err)
	}
}

// TestServerSnapshotSkipMovedFile: a clean store is written again when the
// file it matches is no longer at the path.
func TestServerSnapshotSkipMovedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.db")
	s, _ := seededSnapServer(t, path)
	if err := os.Rename(path, path+".moved"); err != nil {
		t.Fatal(err)
	}
	shutdownServer(t, s)
	if _, items, err := snapshot.VerifyFile(path); err != nil || items != 10 {
		t.Fatalf("Shutdown after the file moved away: items=%d err=%v", items, err)
	}
}

// TestStoreLoadParallelMatchesSerialReplay: the parallel load gives the
// store a serial replay of the stream gives — the last live record of each
// key wins — when duplicates of a key sit in different blocks, and counts
// each key once.
func TestStoreLoadParallelMatchesSerialReplay(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	now := time.Now().Unix()
	type val struct {
		data     string
		flags    uint32
		expireAt int64
	}
	want := map[string]val{}
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf, snapshot.Header{Algo: "ht-clht-lb", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 40,000 records of ~100 bytes over 1,000 keys: about 60 blocks, each
	// key about 40 times, spread over them. Every seventh record is
	// already expired, which a replay skips without touching the key.
	for i := 0; i < 40_000; i++ {
		k := fmt.Sprintf("key-%04d", (i*7919)%1000)
		v := val{data: fmt.Sprintf("%096d", i), flags: uint32(i)}
		if i%7 == 0 {
			v.expireAt = now - 10
		}
		if err := w.Add([]byte(k), v.flags, v.expireAt, []byte(v.data)); err != nil {
			t.Fatal(err)
		}
		if v.expireAt == 0 {
			want[k] = v
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := NewStore("ht-clht-lb", 0, true, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.LoadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loaded != uint64(len(want)) || res.Expired != 40_000/7+1 || st.Items() != len(want) {
		t.Fatalf("Loaded=%d Expired=%d Items=%d, want %d, %d, %d", res.Loaded, res.Expired, st.Items(), len(want), 40_000/7+1, len(want))
	}
	p := st.Pin()
	defer p.Unpin()
	for k, v := range want {
		it, ok := st.Get(p, []byte(k))
		if !ok || string(it.Data) != v.data || it.Flags != v.flags || it.ExpireAt != v.expireAt {
			t.Fatalf("%s = %q/%d/%d (ok=%v), want the last record %q/%d/%d", k, it.Data, it.Flags, it.ExpireAt, ok, v.data, v.flags, v.expireAt)
		}
	}
	if bs := st.BufStats(); bs.Allocs-bs.Frees != uint64(len(want)) {
		t.Fatalf("%d value blocks live after the load, want one per key (%d)", bs.Allocs-bs.Frees, len(want))
	}
}

// damagedSnapshot writes a snapshot of n 1 KiB items, cut from a 2-shard
// ht-clht-lb store, into dir and returns the path of a copy truncated three
// quarters of the way in: whole blocks of valid records precede the damage.
func damagedSnapshot(t *testing.T, dir string, n int) string {
	t.Helper()
	st, err := NewStore("ht-clht-lb", 0, true, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 1024)
	p := st.Pin()
	for i := 0; i < n; i++ {
		st.Set(p, []byte(fmt.Sprintf("key-%05d", i)), 0, 0, val)
	}
	p.Unpin()
	var buf bytes.Buffer
	if _, err := st.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	st.release()
	path := filepath.Join(dir, "damaged.db")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()*3/4], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mappedBytes reads the value_pool_mapped_bytes stat.
func mappedBytes(t *testing.T, s *Server) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s.StatsMap()["value_pool_mapped_bytes"], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServerValuePoolMappedBytes: the Go heap metrics no longer count
// value blocks, so stats does. It covers at least the values stored, and a
// server whose damaged snapshot was rejected at boot maps nothing until it
// stores a value.
func TestServerValuePoolMappedBytes(t *testing.T) {
	t.Run("sets", func(t *testing.T) {
		s := startServer(t, "ht-clht-lb")
		c := dialT(t, s)
		const n = 3000
		val := bytes.Repeat([]byte("v"), 1024)
		for i := 0; i < n; i++ {
			if err := c.Set(fmt.Sprintf("key-%05d", i), 0, 0, val); err != nil {
				t.Fatal(err)
			}
		}
		if got := mappedBytes(t, s); got < n*1024 {
			t.Fatalf("value_pool_mapped_bytes = %d after %d sets of 1 KiB, want >= %d", got, n, n*1024)
		}
	})
	t.Run("damaged-boot", func(t *testing.T) {
		path := damagedSnapshot(t, t.TempDir(), 2000)
		s := startSnapServer(t, Config{Algo: "ht-clht-lb", Shards: 2, SnapshotPath: path})
		if errs := s.StatsMap()["snapshot_errors"]; errs != "1" {
			t.Fatalf("snapshot_errors = %s, want 1: the damaged file was not rejected", errs)
		}
		if got := mappedBytes(t, s); got != 0 {
			t.Fatalf("value_pool_mapped_bytes = %d after a rejected boot, want 0", got)
		}
		c := dialT(t, s)
		if err := c.Set("k", 0, 0, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if got := mappedBytes(t, s); got == 0 {
			t.Fatal("value_pool_mapped_bytes = 0 after a set")
		}
	})
}

// TestServerRejectedBootUnmapsHalfLoadedStore: the store a damaged snapshot
// half-loaded is replaced, and its value blocks, which the GC would never
// reclaim, are unmapped.
func TestServerRejectedBootUnmapsHalfLoadedStore(t *testing.T) {
	path := damagedSnapshot(t, t.TempDir(), 2000)
	s, err := New(Config{Algo: "ht-clht-lb", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	half := s.store
	s.cfg.SnapshotPath = path
	if err := s.warmBoot(func() (*Store, error) { return NewStore("ht-clht-lb", 0, true, 2, false) }); err != nil {
		t.Fatal(err)
	}
	if s.store == half {
		t.Fatal("the half-loaded store was kept")
	}
	if half.Items() == 0 {
		t.Fatal("no record loaded before the damage; the file does not exercise the release")
	}
	if m := half.BufStats().Mapped; m != 0 {
		t.Fatalf("half-loaded store still maps %d bytes", m)
	}
}

// TestNewBoundsMaxItemSizeBySnapshotRecord: with persistence on, an item
// cap above what one snapshot record holds would let a single value make
// every later snapshot fail, so New refuses it; without persistence any
// cap goes.
func TestNewBoundsMaxItemSizeBySnapshotRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.db")
	limit := snapshot.MaxValueLen(MaxKeyLen)
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"at-cap", Config{SnapshotPath: path, MaxItemSize: limit}, true},
		{"over-cap", Config{SnapshotPath: path, MaxItemSize: limit + 1}, false},
		{"80MiB-no-snapshot", Config{MaxItemSize: 80 << 20}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg)
			if (err == nil) != tc.ok {
				t.Fatalf("New(MaxItemSize %d, SnapshotPath %q) = %v, want ok=%v", tc.cfg.MaxItemSize, tc.cfg.SnapshotPath, err, tc.ok)
			}
			if s != nil {
				s.Close()
			}
		})
	}
}
