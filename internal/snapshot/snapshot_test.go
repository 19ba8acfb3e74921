package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

type rec struct {
	key      string
	data     string
	flags    uint32
	expireAt int64
}

func writeTestFile(t testing.TB, path string, h Header, recs []rec) int64 {
	t.Helper()
	size, err := WriteFile(path, func(f io.Writer) error {
		w, err := NewWriter(f, h)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if err := w.Add([]byte(r.key), r.flags, r.expireAt, []byte(r.data)); err != nil {
				return err
			}
		}
		return w.Close()
	})
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return size
}

// readAll decodes the snapshot file at path; see decodeAll.
func readAll(t *testing.T, path string) ([]rec, Header, error) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return decodeAll(t, b)
}

// decodeAll reads b to the end of its record stream, copying each record.
// The error is nil after a clean io.EOF and otherwise the reader's own,
// which must be ErrCorrupt; every record returned must respect the length
// caps.
func decodeAll(t *testing.T, b []byte) ([]rec, Header, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(b))
	var out []rec
	for err == nil {
		var rr *Record
		if rr, err = r.Next(); err != nil {
			break
		}
		if len(rr.Key) > maxKeyLen || len(rr.Data) > maxDataLen {
			t.Fatalf("record over the caps: key %d bytes, data %d bytes", len(rr.Key), len(rr.Data))
		}
		out = append(out, rec{
			key:      string(rr.Key),
			data:     string(rr.Data),
			flags:    rr.Flags,
			expireAt: rr.ExpireAt,
		})
	}
	if err == io.EOF {
		return out, r.Header(), nil
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode error %v is not ErrCorrupt", err)
	}
	return out, Header{}, err
}

func TestSnapshotRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var recs []rec
	for i := 0; i < 5000; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		recs = append(recs, rec{
			key:      fmt.Sprintf("key-%06d", i),
			data:     string(data),
			flags:    rng.Uint32(),
			expireAt: rng.Int63n(1 << 40),
		})
	}
	// Include the degenerate record shapes.
	recs = append(recs, rec{key: "", data: "", flags: 0, expireAt: 0})

	path := filepath.Join(t.TempDir(), "snap.db")
	h := Header{Algo: "sl-fraser-opt", Shards: 4, Ordered: true, CreatedUnix: 1_754_000_000}
	size := writeTestFile(t, path, h, recs)
	st, err := os.Stat(path)
	if err != nil || st.Size() != size {
		t.Fatalf("size: stat=%v want %d err=%v", st, size, err)
	}

	gh, n, err := VerifyFile(path)
	if err != nil {
		t.Fatalf("VerifyFile: %v", err)
	}
	if n != uint64(len(recs)) {
		t.Fatalf("VerifyFile items = %d, want %d", n, len(recs))
	}
	if gh.Algo != h.Algo || gh.Shards != h.Shards || !gh.Ordered || gh.CreatedUnix != h.CreatedUnix || gh.Version != Version {
		t.Fatalf("header mismatch: %+v", gh)
	}

	got, _, err := readAll(t, path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}

func TestSnapshotEmptyFileOfRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.db")
	writeTestFile(t, path, Header{Algo: "ht-clht-lb", Shards: 1}, nil)
	got, _, err := readAll(t, path)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty snapshot: got %d records, err %v", len(got), err)
	}
	if _, n, err := VerifyFile(path); err != nil || n != 0 {
		t.Fatalf("VerifyFile: n=%d err=%v", n, err)
	}
}

// corruptionFixture encodes the valid snapshot the corruptions damage: 2000
// records, about 150 KB, so the stream spans several blocks.
func corruptionFixture(tb testing.TB) []byte {
	tb.Helper()
	var recs []rec
	for i := 0; i < 2000; i++ {
		recs = append(recs, rec{
			key:      fmt.Sprintf("key-%06d", i),
			data:     fmt.Sprintf("value-%06d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
			flags:    uint32(i),
			expireAt: int64(i) << 20,
		})
	}
	path := filepath.Join(tb.TempDir(), "good.db")
	writeTestFile(tb, path, Header{Algo: "ll-lazy", Shards: 2}, recs)
	blob, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// corruptions are the damaged shapes a crash or bit-rot can actually
// produce, each applied to a valid snapshot and returning a damaged copy.
var corruptions = []struct {
	name   string
	mutate func([]byte) []byte
}{
	{"zero-length", func(b []byte) []byte { return nil }},
	{"truncated-header", func(b []byte) []byte { return b[:10] }},
	{"truncated-mid-block", func(b []byte) []byte { return b[:len(b)/2] }},
	{"truncated-trailer", func(b []byte) []byte { return b[:len(b)-6] }},
	{"flipped-byte-mid-record", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 0x40
		return c
	}},
	{"flipped-byte-in-header", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[12] ^= 0x01
		return c
	}},
	{"bad-file-crc", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)-1] ^= 0xFF
		return c
	}},
	{"bad-magic", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[0] = 'X'
		return c
	}},
	{"absurd-length-field", func(b []byte) []byte {
		// Overwrite the first block's length prefix with a huge
		// value; the reader must refuse, not allocate gigabytes.
		c := append([]byte(nil), b...)
		off := headerSize(c)
		c[off] = 0xFF
		c[off+1] = 0xFF
		c[off+2] = 0xFF
		c[off+3] = 0x7F
		return c
	}},
}

// TestSnapshotCorruptionMatrix: every damaged shape must be rejected with
// ErrCorrupt, and none may panic.
func TestSnapshotCorruptionMatrix(t *testing.T) {
	dir := t.TempDir()
	blob := corruptionFixture(t)
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".db")
			if err := os.WriteFile(path, tc.mutate(blob), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := VerifyFile(path); err == nil {
				t.Fatalf("VerifyFile accepted %s", tc.name)
			}
			// Reading directly must error out too (possibly after a
			// prefix of valid records), and must never panic.
			if _, _, err := readAll(t, path); err == nil {
				t.Fatalf("readAll accepted %s", tc.name)
			}
		})
	}
}

// headerSize computes the byte offset just past the header of a valid
// encoded snapshot, by re-parsing the algo length at its fixed position.
func headerSize(b []byte) int {
	// magic(8) version(4) flags(4) shards(4) created(8) algoLen(4)
	algoLen := int(uint32(b[28]) | uint32(b[29])<<8 | uint32(b[30])<<16 | uint32(b[31])<<24)
	return 32 + algoLen + 4 // + header CRC
}

// FuzzSnapshotDecode: the reader parses untrusted files, so arbitrary bytes
// must never panic it, every failure must be ErrCorrupt, and every record it
// returns must respect the length caps. A stream that decodes cleanly must
// survive a re-encode under the same header record for record.
func FuzzSnapshotDecode(f *testing.F) {
	blob := corruptionFixture(f)
	f.Add(blob)
	for _, tc := range corruptions {
		f.Add(tc.mutate(blob))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, h, err := decodeAll(t, b)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, h)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Add([]byte(r.key), r.flags, r.expireAt, []byte(r.data)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, h2, err := decodeAll(t, buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if h2 != h {
			t.Fatalf("header changed across re-encode: %+v -> %+v", h, h2)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-encode returned %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("record %d changed across re-encode:\n got %+v\nwant %+v", i, again[i], recs[i])
			}
		}
	})
}

// TestSnapshotTamperedCountRejected: trailer says N but the stream has
// fewer records (a targeted splice rather than random damage).
func TestSnapshotTamperedCountRejected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Algo: "ht-clht-lb", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.Add([]byte("a"), 0, 0, []byte("1"))
	w.items = 7 // lie
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("tampered count accepted")
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
			return
		}
	}
}

// TestWriteFileErrorLeavesOldIntact: a fill that fails mid-way (the
// in-process analogue of dying mid-snapshot) must leave the previous file
// byte-identical and clean up its temp file.
func TestWriteFileErrorLeavesOldIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.db")
	writeTestFile(t, path, Header{Algo: "ht-clht-lb", Shards: 1}, []rec{{key: "k", data: "v"}})
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	_, err = WriteFile(path, func(f io.Writer) error {
		w, err := NewWriter(f, Header{Algo: "ht-clht-lb", Shards: 1})
		if err != nil {
			return err
		}
		for i := 0; i < 100_000; i++ {
			if err := w.Add([]byte("kkkkkkkkkk"), 0, 0, []byte("vvvvvvvvvvvvvvvvvvvv")); err != nil {
				return err
			}
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile error = %v, want boom", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed WriteFile modified the previous snapshot")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp file left behind: %v", ents)
	}
	// A stray temp file from a SIGKILLed writer must not confuse a
	// subsequent load (loads go by path, never by temp globs) and must
	// not block the next successful write.
	stray := filepath.Join(dir, "snap.db.tmp-killed")
	if err := os.WriteFile(stray, []byte("torn half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyFile(path); err != nil {
		t.Fatalf("old file no longer verifies: %v", err)
	}
	writeTestFile(t, path, Header{Algo: "ht-clht-lb", Shards: 1}, []rec{{key: "k2", data: "v2"}})
	got, _, err := readAll(t, path)
	if err != nil || len(got) != 1 || got[0].key != "k2" {
		t.Fatalf("rewrite over stray temp failed: %v %v", got, err)
	}
}

// TestWriterRefusesRecordOverBlockCap: a record one byte too large for any
// block is refused by Add, so the Writer never produces a file the Reader
// would reject as an implausible block length.
func TestWriterRefusesRecordOverBlockCap(t *testing.T) {
	key := []byte("k")
	data := make([]byte, maxBlockLen-recordFraming-len(key)+1)
	w, err := NewWriter(io.Discard, Header{Algo: "ht-clht-lb", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(key, 0, 0, data); !errors.Is(err, errRecordTooLarge) {
		t.Fatalf("Add of a %d-byte record = %v, want errRecordTooLarge", recordFraming+len(key)+len(data), err)
	}
	if err := w.Close(); !errors.Is(err, errRecordTooLarge) {
		t.Fatalf("Close after a refused record = %v, want the sticky error", err)
	}
	w, _ = NewWriter(io.Discard, Header{})
	if err := w.Add(make([]byte, maxKeyLen+1), 0, 0, nil); !errors.Is(err, errRecordTooLarge) {
		t.Fatalf("Add with a %d-byte key = %v, want errRecordTooLarge", maxKeyLen+1, err)
	}
}

// headWriter keeps the first len(head) bytes written to it and counts the
// rest, so a test can inspect a stream's framing without holding it.
type headWriter struct {
	head []byte
	n    int
}

func (h *headWriter) Write(p []byte) (int, error) {
	if h.n < len(h.head) {
		copy(h.head[h.n:], p)
	}
	h.n += len(p)
	return len(p), nil
}

// TestWriterFlushesBeforeOverfullBlock: a record that fits a block alone
// but not behind the current block's records starts a new block, so no
// block exceeds the Reader's cap.
func TestWriterFlushesBeforeOverfullBlock(t *testing.T) {
	out := &headWriter{head: make([]byte, 1<<10)}
	w, err := NewWriter(out, Header{Algo: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]byte("small"), 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	key := []byte("big")
	if err := w.Add(key, 0, 0, make([]byte, maxBlockLen-recordFraming-len(key))); err != nil {
		t.Fatalf("Add of a record exactly one block long: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := out.head
	off := headerSize(b)
	first := int(binary.LittleEndian.Uint32(b[off:]))
	if want := recordFraming + len("small") + len("v"); first != want {
		t.Fatalf("first block is %d bytes, want the small record alone (%d)", first, want)
	}
	off += 8 + first
	if second := binary.LittleEndian.Uint32(b[off:]); second != maxBlockLen {
		t.Fatalf("second block is %d bytes, want %d", second, maxBlockLen)
	}
}

// TestNextBlockMatchesNext: reading a multi-block stream block by block,
// recycling one buffer, yields the records Next yields, in order, and the
// block lengths sum to the trailer's count.
func TestNextBlockMatchesNext(t *testing.T) {
	var recs []rec
	for i := 0; i < 5000; i++ {
		recs = append(recs, rec{key: fmt.Sprintf("key-%05d", i), data: fmt.Sprintf("%0100d", i), flags: uint32(i), expireAt: int64(i)})
	}
	path := filepath.Join(t.TempDir(), "snap.db")
	writeTestFile(t, path, Header{Algo: "ht-clht-lb", Shards: 1}, recs)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var (
		got    []rec
		buf    []byte
		blocks int
	)
	for {
		blk, err := r.NextBlock(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		blocks++
		first := len(got)
		blk.Records(func(i int, rr *Record) {
			if i != len(got)-first {
				t.Fatalf("record index %d, want %d", i, len(got)-first)
			}
			got = append(got, rec{key: string(rr.Key), data: string(rr.Data), flags: rr.Flags, expireAt: rr.ExpireAt})
		})
		buf = blk.Buffer()
	}
	if blocks < 2 {
		t.Fatalf("stream has %d blocks, want several", blocks)
	}
	if r.Items() != uint64(len(recs)) || len(got) != len(recs) {
		t.Fatalf("Items() = %d, decoded %d, want %d", r.Items(), len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	if _, err := r.NextBlock(buf); err != io.EOF {
		t.Fatalf("NextBlock after the end = %v, want io.EOF", err)
	}
}
