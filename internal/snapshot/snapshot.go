// Package snapshot defines ascyserve's on-disk snapshot format and the
// crash-safe file protocol around it.
//
// # Format (all integers little-endian)
//
//	header:
//	  magic    [8]byte  "ASCYSNP1"
//	  version  uint32   schema version (currently 1)
//	  flags    uint32   bit0: ordered keyspace
//	  shards   uint32   shard count of the writing store (informational)
//	  created  int64    unix seconds the snapshot was taken
//	  algoLen  uint32 + algo bytes (backing algorithm name, informational)
//	  hdrCRC   uint32   CRC32 (IEEE) of every header byte above
//	blocks (repeated):
//	  blockLen uint32   payload length; 0 terminates the block stream
//	  blockCRC uint32   CRC32 of the payload
//	  payload            records packed back to back:
//	    keyLen   uint32 + key bytes
//	    flags    uint32   item flags
//	    expireAt int64    absolute unix expiry (0 = never) — wallclock, so
//	                      TTLs survive restart
//	    dataLen  uint32 + data bytes
//	trailer:
//	  items    uint64   total records written
//	  fileCRC  uint32   CRC32 of every preceding byte in the file
//
// Length prefixes make truncation detectable, per-block CRCs localize
// bit-flips to the record stream, and the whole-file CRC plus the item
// count in the trailer prove the file is complete: a reader that consumes
// the terminator, matches the count, and matches the file CRC has
// validated every byte it returned.
//
// # Crash safety
//
// WriteFile never touches the destination path until the new snapshot is
// complete and durable: it writes to a same-directory temp file, fsyncs
// it, atomically renames it over the destination, then fsyncs the
// directory. A crash — SIGKILL included — at any instant leaves either the
// previous complete file or the new complete file at the path, never a
// torn one; at worst a stray *.tmp-* sibling remains, which the next
// successful write cannot be confused with.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Magic identifies a snapshot file; the trailing digit is the major format
// generation (bumped only on incompatible layout changes — additive changes
// bump the header version field).
const Magic = "ASCYSNP1"

// Version is the current schema version written into headers.
const Version = 1

const (
	flagOrdered = 1 << 0

	// blockTarget is the payload size a Writer accumulates before
	// flushing a block: big enough to amortize the CRC and syscall,
	// small enough that a flipped byte invalidates little.
	blockTarget = 64 << 10

	// Sanity caps applied while reading, so a corrupt length field costs
	// an error, not an absurd allocation. Keys on the wire are ≤250
	// bytes and values ≤ the server's item cap (default 1 MiB,
	// configurable); these caps sit far above both, and Writer.Add
	// refuses a record over them rather than write a file no Reader
	// accepts.
	maxKeyLen   = 1 << 16
	maxDataLen  = 1 << 30
	maxBlockLen = 1 << 26
	maxAlgoLen  = 1 << 10
)

// ErrCorrupt wraps every integrity failure (bad magic, CRC mismatch,
// truncation, implausible length). errors.Is(err, ErrCorrupt) holds for
// all of them.
var ErrCorrupt = errors.New("snapshot: corrupt file")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Header describes a snapshot stream.
type Header struct {
	Algo        string // backing algorithm of the writing store
	Shards      uint32 // shard count of the writing store
	Ordered     bool   // ordered keyspace (order-preserving key encoding)
	CreatedUnix int64  // unix seconds the snapshot was taken
	Version     uint32 // schema version read from the file (writers use Version)
}

// Record is one item. Key and Data alias the Reader's block buffer and are
// valid only until the next call to Next — copy them to retain.
type Record struct {
	Key      []byte
	Data     []byte
	Flags    uint32
	ExpireAt int64 // absolute unix seconds; 0 = never expires
}

// Writer streams records into the format. Errors are sticky: after any
// write error, Add and Close keep returning it.
type Writer struct {
	w     *bufio.Writer
	crc   hash.Hash32 // whole-file CRC, fed by everything written
	block []byte      // current block payload
	items uint64
	err   error
	done  bool
}

// NewWriter writes the header for h and returns a Writer for the record
// stream. The caller owns durability (flush/fsync) of the underlying
// writer; see WriteFile for the crash-safe file protocol.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	sw := &Writer{
		w:     bufio.NewWriterSize(w, 64<<10),
		crc:   crc32.NewIEEE(),
		block: make([]byte, 0, blockTarget+4<<10),
	}
	var flags uint32
	if h.Ordered {
		flags |= flagOrdered
	}
	hdr := make([]byte, 0, 40+len(h.Algo))
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint32(hdr, flags)
	hdr = binary.LittleEndian.AppendUint32(hdr, h.Shards)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(h.CreatedUnix))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(h.Algo)))
	hdr = append(hdr, h.Algo...)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if err := sw.write(hdr); err != nil {
		return nil, err
	}
	return sw, nil
}

func (w *Writer) write(p []byte) error {
	if w.err != nil {
		return w.err
	}
	w.crc.Write(p) // hash.Hash Write never errors
	if _, err := w.w.Write(p); err != nil {
		w.err = err
	}
	return w.err
}

// recordFraming is the bytes a record adds around its key and data: key
// length, flags, expiry and data length.
const recordFraming = 4 + 4 + 8 + 4

// MaxValueLen is the largest value a record with a keyLen-byte key can
// hold: the record alone must fit one block. Add refuses anything larger.
func MaxValueLen(keyLen int) int { return maxBlockLen - recordFraming - keyLen }

// errRecordTooLarge is Add's answer to a record no Reader would accept:
// its key is over maxKeyLen, or it alone does not fit in one block.
var errRecordTooLarge = errors.New("snapshot: record too large for the format")

// Add appends one record. A record that would push the current block past
// the Reader's block cap starts a new block; one too large for any block
// is an error, so a Writer never produces a file its Reader rejects.
func (w *Writer) Add(key []byte, flags uint32, expireAt int64, data []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.done {
		w.err = errors.New("snapshot: Add after Close")
		return w.err
	}
	if len(key) > maxKeyLen || len(data) > MaxValueLen(len(key)) {
		w.err = fmt.Errorf("%w: key %d bytes, data %d bytes (a record holds at most a %d-byte key and fits a %d-byte block)",
			errRecordTooLarge, len(key), len(data), maxKeyLen, maxBlockLen)
		return w.err
	}
	if size := recordFraming + len(key) + len(data); len(w.block)+size > maxBlockLen {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	w.block = binary.LittleEndian.AppendUint32(w.block, uint32(len(key)))
	w.block = append(w.block, key...)
	w.block = binary.LittleEndian.AppendUint32(w.block, flags)
	w.block = binary.LittleEndian.AppendUint64(w.block, uint64(expireAt))
	w.block = binary.LittleEndian.AppendUint32(w.block, uint32(len(data)))
	w.block = append(w.block, data...)
	w.items++
	if len(w.block) >= blockTarget {
		return w.flushBlock()
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if len(w.block) == 0 {
		return w.err
	}
	var pfx [8]byte
	binary.LittleEndian.PutUint32(pfx[0:4], uint32(len(w.block)))
	binary.LittleEndian.PutUint32(pfx[4:8], crc32.ChecksumIEEE(w.block))
	if err := w.write(pfx[:]); err != nil {
		return err
	}
	err := w.write(w.block)
	w.block = w.block[:0]
	return err
}

// Items reports how many records have been added.
func (w *Writer) Items() uint64 { return w.items }

// Close flushes the final block and writes the terminator and trailer. It
// does not sync or close the underlying writer.
func (w *Writer) Close() error {
	if w.done {
		return w.err
	}
	w.done = true
	if err := w.flushBlock(); err != nil {
		return err
	}
	var term [4]byte // blockLen == 0 terminates the record stream
	if err := w.write(term[:]); err != nil {
		return err
	}
	var items [8]byte
	binary.LittleEndian.PutUint64(items[:], w.items)
	if err := w.write(items[:]); err != nil {
		return err
	}
	var fcrc [4]byte
	binary.LittleEndian.PutUint32(fcrc[:], w.crc.Sum32())
	if _, err := w.w.Write(fcrc[:]); err != nil {
		w.err = err
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
	}
	return w.err
}

// Reader validates and iterates a snapshot stream, record by record (Next)
// or block by block (NextBlock); a Reader serves one of the two, not both.
// Every integrity check the format affords runs as the stream is consumed:
// no record is returned from a block whose CRC and framing have not
// already been verified.
type Reader struct {
	r      *bufio.Reader
	crc    hash.Hash32
	hdr    Header
	items  uint64 // records in the blocks read so far
	err    error  // sticky; io.EOF once the trailer has verified
	cur    Block  // Next's current block
	off    int    // Next's read offset into cur
	record Record
}

// Block is one verified block of records, as NextBlock returns it. Its
// records alias its buffer.
type Block struct {
	buf []byte
	n   int
}

// Len reports how many records the block holds.
func (b Block) Len() int { return b.n }

// Buffer returns the block's buffer, to hand to a later NextBlock once
// nothing reads the block's records any more.
func (b Block) Buffer() []byte { return b.buf }

// Records calls fn on each of the block's records in stream order, with i
// its index in the block. The Record is valid only during the call.
func (b Block) Records(fn func(i int, rec *Record)) {
	var rec Record
	off := 0
	for i := 0; i < b.n; i++ {
		size, _ := parseRecord(b.buf[off:], &rec) // framing verified by NextBlock
		fn(i, &rec)
		off += size
	}
}

// NewReader parses and verifies the header.
func NewReader(r io.Reader) (*Reader, error) {
	sr := &Reader{r: bufio.NewReaderSize(r, 64<<10), crc: crc32.NewIEEE()}
	fixed := make([]byte, len(Magic)+4+4+4+8+4)
	if err := sr.read(fixed); err != nil {
		return nil, corruptf("short header: %v", err)
	}
	if string(fixed[:len(Magic)]) != Magic {
		return nil, corruptf("bad magic %q", fixed[:len(Magic)])
	}
	p := fixed[len(Magic):]
	ver := binary.LittleEndian.Uint32(p[0:4])
	if ver == 0 || ver > Version {
		return nil, corruptf("unsupported version %d", ver)
	}
	flags := binary.LittleEndian.Uint32(p[4:8])
	shards := binary.LittleEndian.Uint32(p[8:12])
	created := int64(binary.LittleEndian.Uint64(p[12:20]))
	algoLen := binary.LittleEndian.Uint32(p[20:24])
	if algoLen > maxAlgoLen {
		return nil, corruptf("implausible algo length %d", algoLen)
	}
	algo := make([]byte, algoLen)
	if err := sr.read(algo); err != nil {
		return nil, corruptf("short header algo: %v", err)
	}
	hcrc := crc32.NewIEEE()
	hcrc.Write(fixed)
	hcrc.Write(algo)
	var crcBuf [4]byte
	if err := sr.read(crcBuf[:]); err != nil {
		return nil, corruptf("short header crc: %v", err)
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != hcrc.Sum32() {
		return nil, corruptf("header crc mismatch")
	}
	sr.hdr = Header{
		Algo:        string(algo),
		Shards:      shards,
		Ordered:     flags&flagOrdered != 0,
		CreatedUnix: created,
		Version:     ver,
	}
	return sr, nil
}

// read fills p fully, feeding the whole-file CRC.
func (r *Reader) read(p []byte) error {
	if _, err := io.ReadFull(r.r, p); err != nil {
		return err
	}
	r.crc.Write(p)
	return nil
}

// Header returns the parsed header.
func (r *Reader) Header() Header { return r.hdr }

// Items reports how many records the blocks read so far hold: after the
// final io.EOF, the file's verified record count.
func (r *Reader) Items() uint64 { return r.items }

// Next returns the next record, io.EOF after the final record once the
// terminator, item count, and whole-file CRC have all verified, or an
// ErrCorrupt-wrapped error. Record contents are valid until the next call.
func (r *Reader) Next() (*Record, error) {
	for r.off >= len(r.cur.buf) {
		blk, err := r.NextBlock(r.cur.buf)
		if err != nil {
			return nil, err
		}
		r.cur, r.off = blk, 0
	}
	size, _ := parseRecord(r.cur.buf[r.off:], &r.record) // framing verified by NextBlock
	r.off += size
	return &r.record, nil
}

// NextBlock reads the next block into buf (grown when too small; nil
// allocates), verifies its CRC and the framing of every record in it, and
// returns it. After the last block it verifies the terminator, the item
// count and the whole-file CRC and returns io.EOF. Errors are sticky, and
// every one but io.EOF wraps ErrCorrupt. The returned block aliases buf, so
// a caller that recycles buffers hands one back only after it is done with
// the block's records.
func (r *Reader) NextBlock(buf []byte) (Block, error) {
	if r.err != nil {
		return Block{}, r.err
	}
	blk, err := r.nextBlock(buf)
	if err != nil {
		r.err = err
	}
	return blk, err
}

func (r *Reader) nextBlock(buf []byte) (Block, error) {
	var pfx [8]byte // blockLen, blockCRC
	if err := r.read(pfx[:4]); err != nil {
		return Block{}, corruptf("truncated block stream: %v", err)
	}
	n := binary.LittleEndian.Uint32(pfx[:4])
	if n == 0 {
		if err := r.readTrailer(); err != nil {
			return Block{}, err
		}
		return Block{}, io.EOF
	}
	if n > maxBlockLen {
		return Block{}, corruptf("implausible block length %d", n)
	}
	if err := r.read(pfx[4:]); err != nil {
		return Block{}, corruptf("truncated block crc: %v", err)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if err := r.read(buf); err != nil {
		return Block{}, corruptf("truncated block payload: %v", err)
	}
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(pfx[4:]) {
		return Block{}, corruptf("block crc mismatch")
	}
	blk := Block{buf: buf}
	var rec Record
	for off := 0; off < len(buf); blk.n++ {
		size, err := parseRecord(buf[off:], &rec)
		if err != nil {
			return Block{}, err
		}
		off += size
	}
	r.items += uint64(blk.n)
	return blk, nil
}

// parseRecord decodes the record at the front of b into rec and returns
// its encoded size.
func parseRecord(b []byte, rec *Record) (int, error) {
	// keyLen key flags expireAt dataLen data
	if len(b) < 4 {
		return 0, corruptf("truncated record header")
	}
	keyLen := binary.LittleEndian.Uint32(b[0:4])
	if keyLen > maxKeyLen {
		return 0, corruptf("implausible key length %d", keyLen)
	}
	need := recordFraming + int(keyLen)
	if len(b) < need {
		return 0, corruptf("record overruns block")
	}
	p := b[4+keyLen:]
	dataLen := binary.LittleEndian.Uint32(p[12:16])
	if dataLen > maxDataLen {
		return 0, corruptf("implausible data length %d", dataLen)
	}
	if len(p) < 16+int(dataLen) {
		return 0, corruptf("record data overruns block")
	}
	*rec = Record{
		Key:      b[4 : 4+keyLen],
		Data:     p[16 : 16+dataLen],
		Flags:    binary.LittleEndian.Uint32(p[0:4]),
		ExpireAt: int64(binary.LittleEndian.Uint64(p[4:12])),
	}
	return need + int(dataLen), nil
}

func (r *Reader) readTrailer() error {
	var items [8]byte
	if err := r.read(items[:]); err != nil {
		return corruptf("truncated trailer: %v", err)
	}
	if got := binary.LittleEndian.Uint64(items[:]); got != r.items {
		return corruptf("item count mismatch: trailer says %d, stream had %d", got, r.items)
	}
	want := r.crc.Sum32() // covers everything up to and including the item count
	var fcrc [4]byte
	if _, err := io.ReadFull(r.r, fcrc[:]); err != nil {
		return corruptf("truncated file crc: %v", err)
	}
	if binary.LittleEndian.Uint32(fcrc[:]) != want {
		return corruptf("file crc mismatch")
	}
	// Trailing garbage after the trailer is tolerated deliberately: the
	// validated region is self-delimiting, and rejecting appended junk
	// would make the format fragile to block-granular storage.
	return nil
}

// VerifyFile streams through the whole file running every integrity check
// and returns the header and record count, decoding nothing into memory
// beyond one block buffer. It is a check for tests and tools: a loader
// that wants all-or-nothing reads the file once and discards what it built
// on any error, as the server's boot does, rather than paying a second
// sequential read up front.
func VerifyFile(path string) (Header, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, 0, err
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return Header{}, 0, err
	}
	var buf []byte
	for {
		blk, err := r.NextBlock(buf)
		if err == io.EOF {
			return r.Header(), r.Items(), nil
		}
		if err != nil {
			return r.Header(), 0, err
		}
		buf = blk.Buffer()
	}
}

// WriteFile runs the crash-safe file protocol: fill writes a complete
// snapshot stream (NewWriter through Writer.Close) into a same-directory
// temp file, which is then fsynced, renamed over path, and made durable
// with a directory fsync. On any error the temp file is removed and path
// is untouched. Returns the byte size of the new file.
func WriteFile(path string, fill func(f io.Writer) error) (size int64, err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = fill(f); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if err = f.Close(); err != nil {
		return 0, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, err
	}
	// Make the rename itself durable. Some filesystems reject directory
	// fsync; the rename is still atomic there, so this is best-effort.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return st.Size(), nil
}
