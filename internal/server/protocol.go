// Package server puts the library on the wire: a memcached-text-protocol
// server over the typed facades, so any registered algorithm — CLHT, the
// Fraser skip list, the Harris list, BST-TK, … — can front real network
// traffic. The paper names memcached's hash table as a canonical CSDS
// deployment (§1, §7); this package is that deployment, end to end.
//
// The layers, bottom up:
//
//   - protocol.go — framing: ReadCommandInto parses one request (command
//     line plus optional data block) from a buffered stream into reused
//     per-connection scratch, tolerating frames split across arbitrary read
//     boundaries and resynchronizing after malformed lines. The steady-state
//     parse performs no heap allocation: keys point into the read buffer
//     (or retained scratch) and numbers are parsed in place. ReadBatchInto
//     drains every complete frame a pipelining client has already buffered
//     into one reused Batch — the free batch the server amortizes over.
//   - store.go — memcached item semantics (flags, CAS tokens, lazy
//     expiry, incr/decr) over ascylib.ShardedStringMap, i.e. over any registered
//     structure, with value blocks recycled through SSMEM epochs. Pins
//     capture the clock once and carry the shard-grouped GetBatch scratch.
//   - server.go — the TCP front: a sharded-accept worker pool, one
//     goroutine per connection, per-connection read/write buffering, and
//     pipelining: requests execute in batches under a single store pin
//     (epochs, pin-pool traffic, and clock reads amortize across the
//     burst), and responses are flushed only when the input buffer runs
//     dry, so a burst of n requests costs O(1) flushes, not n.
//   - client.go — a minimal client for the same protocol, with explicit
//     send/receive halves so callers can pipeline.
//
// Wire-level load and latency are measured by the repo's benchmark/
// module, which drives a real ascyserve and checks every response byte.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// Protocol limits. MaxKeyLen is the memcached limit; the line limit bounds
// multi-get command lines (a few hundred max-length keys).
const (
	MaxKeyLen          = 250
	MaxCommandLine     = 1 << 14 // 16 KiB
	DefaultMaxItemSize = 1 << 20 // 1 MiB values
	// MaxRangeKeys caps how many entries one mrange may return. The client
	// asks for a limit; the server clamps it here, so a scan can never stage
	// an unbounded response no matter what the wire asks for.
	MaxRangeKeys = 1000
)

// Op enumerates the protocol commands the server speaks.
type Op uint8

// The commands of the memcached text protocol served here.
const (
	OpGet Op = iota
	OpGets
	OpSet
	OpAdd
	OpReplace
	OpCas
	OpDelete
	OpIncr
	OpDecr
	OpStats
	OpVersion
	OpFlushAll
	OpQuit
	// The ordered-keyspace extension (served only with Config.Ordered):
	// "mrange <lo> <hi> <limit>" enumerates lo <= key <= hi in lexicographic
	// order, framed exactly like a multi-get response (VALUE stanzas, END);
	// "mmin" / "mmax" return the extreme entry the same way.
	OpMRange
	OpMMin
	OpMMax
	// The persistence extension (served only with Config.SnapshotPath):
	// "msnap" takes a snapshot to the configured file — memcached's
	// bgsave analogue — answering OK on success.
	OpMSnap
)

var opNames = [...]string{
	OpGet: "get", OpGets: "gets", OpSet: "set", OpAdd: "add",
	OpReplace: "replace", OpCas: "cas", OpDelete: "delete", OpIncr: "incr",
	OpDecr: "decr", OpStats: "stats", OpVersion: "version",
	OpFlushAll: "flush_all", OpQuit: "quit",
	OpMRange: "mrange", OpMMin: "mmin", OpMMax: "mmax",
	OpMSnap: "msnap",
}

// String returns the wire verb.
func (o Op) String() string { return opNames[o] }

// Command is one parsed request. Its byte-slice fields point into the
// connection's read buffer or the Scratch it was parsed with, so they are
// valid only until the next ReadCommandInto on the same connection — the
// request loop fully executes each command before reading the next, and the
// store copies what it retains, so nothing ever aliases a dead buffer.
type Command struct {
	Op Op
	// Keys holds the keys of a retrieval command (get/gets).
	Keys [][]byte
	// Key is the single key of a storage/arithmetic/delete command.
	Key []byte
	// Flags, Exptime, and Data belong to storage commands; Data is the
	// value block, already stripped of its trailing CRLF.
	Flags   uint32
	Exptime int64
	Data    []byte
	// CasID is the compare token of a cas command.
	CasID uint64
	// Delta is the incr/decr operand.
	Delta uint64
	// NoReply suppresses the response line.
	NoReply bool
}

// reset clears the public fields for reuse.
func (c *Command) reset() {
	*c = Command{}
}

// Scratch is the retained per-connection parse state: the split-fields
// table, a copy buffer for storage-command keys (which would otherwise be
// invalidated by reading the data block), and the grow-only data-block
// buffer. One Scratch per connection makes the steady-state parse
// allocation-free.
type Scratch struct {
	fields  [][]byte
	keyBuf  [MaxKeyLen]byte
	dataBuf []byte
	keys    [][]byte
}

// ProtoError is a protocol-level failure. Resp is the full response line to
// send the client (without CRLF); Fatal means the stream cannot be
// resynchronized and the connection must close. Non-fatal errors leave the
// reader positioned at the next command line — for storage commands that
// means the data block announced by the (parseable) size field has been
// consumed, so one malformed request can never smuggle its payload into
// the command stream. NoReply is set when the failing command line asked
// for noreply: the server then suppresses the error response too, keeping
// noreply pipelines aligned (as memcached does).
type ProtoError struct {
	Resp    string
	Fatal   bool
	NoReply bool
}

// Error implements error.
func (e *ProtoError) Error() string { return e.Resp }

func clientErr(format string, args ...any) *ProtoError {
	return &ProtoError{Resp: "CLIENT_ERROR " + fmt.Sprintf(format, args...)}
}

// ErrUnknownCommand is the bare-"ERROR" response of the protocol.
var ErrUnknownCommand = &ProtoError{Resp: "ERROR"}

// readLine reads one CRLF-terminated line, rejecting lines longer than
// MaxCommandLine. On an overlong line it discards through the newline so
// the stream stays framed, and returns a non-fatal ProtoError.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Discard the rest of the oversized line, then report.
		for err == bufio.ErrBufferFull {
			_, err = r.ReadSlice('\n')
		}
		if err != nil {
			return nil, fatalIO(err)
		}
		return nil, clientErr("command line too long")
	}
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return nil, io.EOF
		}
		return nil, fatalIO(err)
	}
	if len(line) > MaxCommandLine {
		// The buffer may be larger than the protocol limit; enforce the
		// limit itself. The newline was already consumed, so the stream
		// stays framed.
		return nil, clientErr("command line too long")
	}
	// Strip the LF and an optional preceding CR.
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// fatalIO wraps a transport error; the connection is beyond recovery.
func fatalIO(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// validKey reports whether k is a legal memcached key: 1..MaxKeyLen bytes,
// no whitespace or control characters.
func validKey(k []byte) bool {
	if len(k) == 0 || len(k) > MaxKeyLen {
		return false
	}
	for i := 0; i < len(k); i++ {
		if k[i] <= ' ' || k[i] == 0x7f {
			return false
		}
	}
	return true
}

// splitFields splits line on ASCII whitespace into dst (reused), the
// allocation-free analog of strings.Fields.
func splitFields(line []byte, dst [][]byte) [][]byte {
	dst = dst[:0]
	i := 0
	for i < len(line) {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		start := i
		for i < len(line) && !isSpace(line[i]) {
			i++
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}

func isSpace(b byte) bool {
	switch b {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// parseU64 parses an unsigned decimal without allocating. No length cap:
// zero-padded numerals of any length are legal (as with strconv); the
// overflow check bounds the value, and the command-line limit bounds the
// input.
func parseU64(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false // overflow
		}
		v = v*10 + d
	}
	return v, true
}

// parseI64 parses a signed decimal without allocating.
func parseI64(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	v, ok := parseU64(b)
	if !ok {
		return 0, false
	}
	if neg {
		if v > 1<<63 {
			return 0, false
		}
		return -int64(v), true
	}
	if v > 1<<63-1 {
		return 0, false
	}
	return int64(v), true
}

var noreplyBytes = []byte("noreply")

// ReadCommand parses the next request from r into a freshly allocated
// Command with its own Scratch. It is the convenience form for tests and
// one-shot use; the server's request loop uses ReadCommandInto with
// per-connection state. The returned command's byte fields are valid until
// the next read from r.
func ReadCommand(r *bufio.Reader, maxItem int) (*Command, error) {
	cmd := &Command{}
	if err := ReadCommandInto(r, maxItem, cmd, &Scratch{}); err != nil {
		return nil, err
	}
	return cmd, nil
}

// ReadCommandInto parses the next request from r into cmd, reusing sc: the
// command line and, for storage commands, the data block. maxItem bounds
// the data block size (<= 0 means DefaultMaxItemSize). Oversized values are
// consumed from the stream and reported as a non-fatal ProtoError, so one
// abusive request does not desynchronize the connection. io.EOF is returned
// only at a clean boundary between requests.
//
// The reader's buffer must hold at least MaxCommandLine bytes (the server
// and client constructors guarantee this).
func ReadCommandInto(r *bufio.Reader, maxItem int, cmd *Command, sc *Scratch) error {
	if maxItem <= 0 {
		maxItem = DefaultMaxItemSize
	}
	line, err := readLine(r)
	if err != nil {
		return err
	}
	cmd.reset()
	sc.fields = splitFields(line, sc.fields)
	// Decide the noreply question now: parseFields may consume a data
	// block, and that read refills the bufio buffer the field slices
	// alias, so they cannot be trusted after an error.
	n := len(sc.fields)
	askedNoreply := n > 0 && bytes.Equal(sc.fields[n-1], noreplyBytes)
	if err := parseFields(r, sc.fields, maxItem, cmd, sc); err != nil {
		var pe *ProtoError
		if errors.As(err, &pe) && !pe.NoReply && askedNoreply {
			// The failing command asked for noreply; suppress the error
			// response as well (a copy — some ProtoErrors are shared).
			cp := *pe
			cp.NoReply = true
			return &cp
		}
		return err
	}
	return nil
}

// parseFields parses one split command line (and, for storage commands,
// the trailing data block) into cmd.
func parseFields(r *bufio.Reader, fields [][]byte, maxItem int, cmd *Command, sc *Scratch) error {
	if len(fields) == 0 {
		return ErrUnknownCommand
	}
	switch string(fields[0]) { // compiled to a no-alloc comparison switch
	case "get", "gets":
		cmd.Op = OpGet
		if len(fields[0]) == 4 {
			cmd.Op = OpGets
		}
		if len(fields) < 2 {
			return clientErr("get requires at least one key")
		}
		for _, k := range fields[1:] {
			if !validKey(k) {
				return clientErr("bad key")
			}
		}
		// The keys alias the read buffer, which stays untouched until the
		// next command is read; reuse the retained table to carry them.
		sc.keys = append(sc.keys[:0], fields[1:]...)
		cmd.Keys = sc.keys
		return nil

	case "set", "add", "replace", "cas":
		switch fields[0][0] {
		case 's':
			cmd.Op = OpSet
		case 'a':
			cmd.Op = OpAdd
		case 'r':
			cmd.Op = OpReplace
		default:
			cmd.Op = OpCas
		}
		want := 5 // verb key flags exptime bytes
		if cmd.Op == OpCas {
			want = 6 // ... casid
		}
		// The size field decides recoverability: when it parses, the data
		// block it announces is consumed even if the rest of the line is
		// malformed, so the stream stays aligned on command boundaries.
		// When the size cannot be located or parsed, the block length is
		// unknowable and the connection must close (the alternative —
		// interpreting the client's data bytes as commands — is exactly
		// the request-smuggling shape).
		if len(fields) < 5 {
			return &ProtoError{Resp: "CLIENT_ERROR bad command line format", Fatal: true}
		}
		size, ok := parseU64(fields[4])
		if !ok || size > 1<<62 {
			return &ProtoError{Resp: "CLIENT_ERROR bad command line format", Fatal: true}
		}
		badLine := func(format string, args ...any) error {
			if err := discard(r, int64(size)+2); err != nil {
				return fatalIO(err)
			}
			return clientErr(format, args...)
		}
		n := len(fields)
		if n == want+1 && bytes.Equal(fields[n-1], noreplyBytes) {
			cmd.NoReply = true
			n--
		}
		if n != want {
			return badLine("bad command line format")
		}
		if !validKey(fields[1]) {
			return badLine("bad key")
		}
		flags, ok1 := parseU64(fields[2])
		exptime, ok2 := parseI64(fields[3])
		if !ok1 || flags > 1<<32-1 || !ok2 {
			return badLine("bad command line format")
		}
		if cmd.Op == OpCas {
			casid, ok := parseU64(fields[5])
			if !ok {
				return badLine("bad command line format")
			}
			cmd.CasID = casid
		}
		cmd.Flags = uint32(flags)
		cmd.Exptime = exptime
		if size > uint64(maxItem) {
			// Swallow the block so the next command parses cleanly.
			if err := discard(r, int64(size)+2); err != nil {
				return fatalIO(err)
			}
			return &ProtoError{Resp: "SERVER_ERROR object too large for cache", NoReply: cmd.NoReply}
		}
		// Reading the data block recycles the read buffer the key points
		// into: copy the key into retained scratch first.
		cmd.Key = sc.keyBuf[:copy(sc.keyBuf[:], fields[1])]
		if sc.dataBuf == nil || cap(sc.dataBuf) < int(size) {
			n := int(size)
			if n < 64 {
				n = 64 // floor, so a zero-length value still gets a non-nil Data
			}
			sc.dataBuf = make([]byte, n)
		}
		cmd.Data = sc.dataBuf[:size]
		if _, err := io.ReadFull(r, cmd.Data); err != nil {
			return fatalIO(err)
		}
		var crlf [2]byte
		if _, err := io.ReadFull(r, crlf[:]); err != nil {
			return fatalIO(err)
		}
		if crlf[0] != '\r' || crlf[1] != '\n' {
			// The block did not end where the length said: the stream
			// cannot be trusted to be aligned on a command boundary.
			return &ProtoError{Resp: "CLIENT_ERROR bad data chunk", Fatal: true}
		}
		return nil

	case "delete":
		cmd.Op = OpDelete
		n := len(fields)
		if n == 3 && bytes.Equal(fields[2], noreplyBytes) {
			cmd.NoReply = true
			n--
		}
		if n != 2 {
			return clientErr("bad command line format")
		}
		cmd.Key = fields[1]
		if !validKey(cmd.Key) {
			return clientErr("bad key")
		}
		return nil

	case "incr", "decr":
		cmd.Op = OpIncr
		if fields[0][0] == 'd' {
			cmd.Op = OpDecr
		}
		n := len(fields)
		if n == 4 && bytes.Equal(fields[3], noreplyBytes) {
			cmd.NoReply = true
			n--
		}
		if n != 3 {
			return clientErr("bad command line format")
		}
		cmd.Key = fields[1]
		if !validKey(cmd.Key) {
			return clientErr("bad key")
		}
		delta, ok := parseU64(fields[2])
		if !ok {
			return clientErr("invalid numeric delta argument")
		}
		cmd.Delta = delta
		return nil

	case "stats":
		// Stats sub-arguments (slabs, items, …) are accepted and answered
		// with the general statistics.
		cmd.Op = OpStats
		return nil

	case "version":
		cmd.Op = OpVersion
		return nil

	case "flush_all":
		cmd.Op = OpFlushAll
		n := len(fields)
		if n > 1 && bytes.Equal(fields[n-1], noreplyBytes) {
			cmd.NoReply = true
			n--
		}
		if n > 2 {
			return clientErr("bad command line format")
		}
		if n == 2 {
			// Optional delay: invalidate everything stored up to now at
			// now+delay seconds (carried in Exptime).
			delay, ok := parseI64(fields[1])
			if !ok || delay < 0 {
				return clientErr("invalid flush_all delay")
			}
			cmd.Exptime = delay
		}
		return nil

	case "mrange":
		// mrange <lo> <hi> <limit> — the bounds are keys (inclusive), the
		// limit a positive count the server additionally clamps to
		// MaxRangeKeys. No noreply form: a scan exists to return data. The
		// bounds ride in Keys (like a multi-get's keys, aliasing the read
		// buffer), the limit in Delta.
		cmd.Op = OpMRange
		if len(fields) != 4 {
			return clientErr("mrange requires: mrange <lo> <hi> <limit>")
		}
		if !validKey(fields[1]) || !validKey(fields[2]) {
			return clientErr("bad key")
		}
		limit, ok := parseU64(fields[3])
		if !ok || limit == 0 {
			return clientErr("bad mrange limit")
		}
		sc.keys = append(sc.keys[:0], fields[1], fields[2])
		cmd.Keys = sc.keys
		cmd.Delta = limit
		return nil

	case "mmin", "mmax":
		cmd.Op = OpMMin
		if fields[0][2] == 'a' {
			cmd.Op = OpMMax
		}
		if len(fields) != 1 {
			return clientErr("bad command line format")
		}
		return nil

	case "msnap":
		cmd.Op = OpMSnap
		if len(fields) != 1 {
			return clientErr("bad command line format")
		}
		return nil

	case "quit":
		cmd.Op = OpQuit
		return nil
	}
	return ErrUnknownCommand
}

// discard drops n bytes from r.
func discard(r *bufio.Reader, n int64) error {
	_, err := io.CopyN(io.Discard, r, n)
	return err
}

// --- batched framing ----------------------------------------------------

// DefaultMaxBatch bounds how many requests one ReadBatchInto call drains.
// The read buffer bounds a batch's total frame bytes anyway; this bounds the
// per-connection entry/scratch tables a deep pipeline can grow. Frames left
// buffered beyond the cap are simply picked up by the next batch, so the cap
// costs no latency.
const DefaultMaxBatch = 512

// BatchEntry is one slot of a parsed batch: either a command (Err nil) or an
// in-order recoverable protocol error to report in the command's place.
type BatchEntry struct {
	Cmd Command
	// Err, when non-nil, means this slot is a protocol error: Cmd is
	// invalid, and the server responds with Err.Resp (unless Err.NoReply)
	// exactly where the failed command's response would have gone, keeping
	// pipelined responses aligned. A Fatal Err is always the last entry.
	Err *ProtoError
}

// batchDataRetention bounds the data-block buffer capacity a Batch keeps
// across rounds, summed over its slots. A batch's non-first frames all come
// out of the read buffer (64 KiB by default), so this budget keeps uniform
// workloads allocation-free between batches while preventing a pathological
// burst shape (many slots each ratcheted to a large value) from pinning
// MaxBatch × large-value bytes per connection forever.
const batchDataRetention = 128 << 10

// Batch is the retained per-connection batch state: the entry table and one
// Scratch per slot. Per-slot scratches are what let a whole batch of parsed
// commands stay alive at once — ReadCommandInto's single-Scratch contract
// ("valid until the next read") covers one command, not a pipeline.
// Scratches are held by pointer so growing the table never relocates a
// keyBuf out from under an already-parsed command.
type Batch struct {
	Entries []BatchEntry
	scs     []*Scratch
}

// shedData releases per-slot data buffers beyond the retention budget. The
// caller must be between batches: entries from the previous round alias
// these buffers while they are live. Slot 0 is exempt — it serves the
// blocking first frame, the only one that may exceed the read buffer, and
// keeping it matches the per-command path's one-Scratch-per-connection
// retention (a client looping large sets stays allocation-free).
func (b *Batch) shedData() {
	budget := int64(batchDataRetention)
	for i, sc := range b.scs {
		if i == 0 {
			continue
		}
		if budget -= int64(cap(sc.dataBuf)); budget < 0 {
			sc.dataBuf = nil
		}
	}
}

// slot appends and returns the next entry with its dedicated scratch.
func (b *Batch) slot() (*BatchEntry, *Scratch) {
	i := len(b.Entries)
	if i < cap(b.Entries) {
		b.Entries = b.Entries[:i+1]
	} else {
		b.Entries = append(b.Entries, BatchEntry{})
	}
	for len(b.scs) <= i {
		b.scs = append(b.scs, &Scratch{})
	}
	e := &b.Entries[i]
	e.Err = nil
	return e, b.scs[i]
}

// truncate drops the last (unfilled) entry again.
func (b *Batch) truncate() { b.Entries = b.Entries[:len(b.Entries)-1] }

// nextFieldOf returns the first whitespace-separated field of line and the
// remainder after it, without building a field table.
func nextFieldOf(line []byte) (field, rest []byte) {
	i := 0
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	start := i
	for i < len(line) && !isSpace(line[i]) {
		i++
	}
	return line[start:i], line[i:]
}

// frameExtra returns how many bytes beyond the command line (and its LF) the
// frame consumes: size+2 for a storage command whose size field parses, 0
// otherwise. It mirrors parseFields' consumption exactly — including the
// error paths, which either discard the same announced block (recoverable)
// or consume nothing past the line (fatal) — and errs on the side of
// demanding more, never less, so a frame it calls complete can always be
// parsed without refilling the read buffer. The result is int64 on purpose:
// announced sizes run up to 2^62, and truncating through int would wrap on
// 32-bit platforms and report a mostly-unbuffered frame as complete.
func frameExtra(line []byte) int64 {
	verb, rest := nextFieldOf(line)
	switch string(verb) { // no-alloc comparison switch
	case "set", "add", "replace", "cas":
	default:
		return 0
	}
	// Fields 1..3 are key/flags/exptime; field 4 announces the block size.
	var f []byte
	for i := 0; i < 4; i++ {
		f, rest = nextFieldOf(rest)
	}
	size, ok := parseU64(f)
	if !ok || size > 1<<62 {
		return 0 // unparseable size: the fatal path reads nothing further
	}
	return int64(size) + 2
}

// frameBuffered reports whether r's buffer already holds one complete
// request frame, so parsing it cannot trigger a buffer refill. A refill
// would slide the buffered window and dangle the key slices of commands
// parsed earlier in the same batch, so this check is what makes batched
// parsing sound — and it is also what keeps ReadBatchInto from blocking
// after its first command.
func frameBuffered(r *bufio.Reader) bool {
	n := r.Buffered()
	if n == 0 {
		return false
	}
	buf, err := r.Peek(n)
	if err != nil {
		return false
	}
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		return false
	}
	line := buf[:i]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return int64(n) >= int64(i+1)+frameExtra(line)
}

// ReadBatchInto drains pipelined requests from r into b, reusing its entry
// and scratch tables. The first command is read exactly like ReadCommandInto
// (blocking if the stream is mid-frame); after that, parsing continues only
// while a complete frame is already buffered — never blocking and never
// refilling the read buffer — up to maxBatch entries (<= 0 means
// DefaultMaxBatch). This is the free batch a pipelining client hands the
// server: everything it queued behind the first request.
//
// Recoverable protocol errors become in-order entries with Err set, so the
// response stream stays aligned with the request stream. A fatal protocol
// error becomes the batch's last entry (its Err.Fatal tells the caller to
// close after responding), and a quit command likewise ends the batch. The
// returned error is non-nil only for transport failures on the first
// command (io.EOF at a clean request boundary); in that case no entries are
// returned.
func ReadBatchInto(r *bufio.Reader, maxItem, maxBatch int, b *Batch) (int, error) {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	b.shedData() // the previous round's entries are dead; cap retained buffers
	b.Entries = b.Entries[:0]
	for len(b.Entries) < maxBatch {
		if len(b.Entries) > 0 && !frameBuffered(r) {
			break
		}
		e, sc := b.slot()
		if err := ReadCommandInto(r, maxItem, &e.Cmd, sc); err != nil {
			var pe *ProtoError
			if errors.As(err, &pe) {
				e.Err = pe
				if pe.Fatal {
					break
				}
				continue
			}
			// Transport error or EOF. Only the first command can block, so
			// only it can see one; the batch is empty.
			b.truncate()
			return 0, err
		}
		if e.Cmd.Op == OpQuit {
			break
		}
	}
	return len(b.Entries), nil
}
