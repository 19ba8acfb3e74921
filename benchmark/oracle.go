package main

import "bytes"

// The oracle checks every reply against what the generator knows must be
// true: values and flags are functions of the key, ids below
// workload.permanent() can never miss, ids at or above workload.keys can
// never hit, and a scan returns consecutive, ascending, complete entries.
// Anything else — an error line, a short or malformed frame, a wrong byte —
// is a failed operation.

var (
	endLine   = []byte("END\r\n")
	valueWord = []byte("VALUE ")
	stored    = []byte("STORED\r\n")
	deleted   = []byte("DELETED\r\n")
	notFound  = []byte("NOT_FOUND\r\n")
)

// maxReplyLine bounds a reply line; a longer run without a newline cannot
// be framed and ends the connection.
const maxReplyLine = 512

// checkReply inspects the reply to o at the head of buf. It returns the
// number of bytes the reply occupies and whether it is correct; n == 0
// means the reply is not complete yet, n < 0 that the stream cannot be
// framed any more. hits is the number of VALUE stanzas seen.
func checkReply(wl *workload, o op, buf []byte) (n int, ok bool, hits int) {
	switch o.kind {
	case opSet, opSetExpiring:
		return checkLine(buf, stored, nil)
	case opDelete:
		return checkLine(buf, deleted, notFound)
	}
	span := uint32(1)
	if o.kind == opScan {
		span = uint32(wl.scanLen)
	}
	ok = true
	next := o.id // lowest id the next stanza may carry
	for {
		rest := buf[n:]
		if len(rest) < len(endLine) {
			return 0, false, 0
		}
		if bytes.HasPrefix(rest, endLine) {
			n += len(endLine)
			break
		}
		if !bytes.HasPrefix(rest, valueWord) {
			// An error line ends the reply.
			ln, _, _ := checkLine(rest, nil, nil)
			if ln <= 0 {
				return ln, false, 0
			}
			return n + ln, false, hits
		}
		key, flags, data, vn := parseValue(rest)
		if vn <= 0 {
			return vn, false, 0
		}
		n += vn
		hits++
		id, isKey := keyID(wl, key)
		if !isKey || id < next || id >= o.id+span ||
			flags != uint64(flagsOf(id)) || !bytes.Equal(data, valueOf(id, wl.valueLen)) {
			ok = false
			continue
		}
		next = id + 1
	}
	// Completeness: every permanent id of the span must have been returned,
	// and an id outside the keyspace must not have been.
	must := 0
	if perm := wl.permanent(); o.id < perm {
		must = int(min(o.id+span, perm) - o.id)
	}
	if hits < must || (o.id >= uint32(wl.keys) && hits > 0) {
		ok = false
	}
	return n, ok, hits
}

// checkLine consumes one CRLF line and reports whether it equals a or b.
func checkLine(buf, a, b []byte) (n int, ok bool, hits int) {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		if len(buf) > maxReplyLine {
			return -1, false, 0
		}
		return 0, false, 0
	}
	line := buf[:i+1]
	return i + 1, bytes.Equal(line, a) || (b != nil && bytes.Equal(line, b)), 0
}

// parseValue frames one "VALUE <key> <flags> <bytes>\r\n<data>\r\n" stanza.
func parseValue(buf []byte) (key []byte, flags uint64, data []byte, n int) {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		if len(buf) > maxReplyLine {
			return nil, 0, nil, -1
		}
		return nil, 0, nil, 0
	}
	line := bytes.TrimSuffix(buf[len(valueWord):i], []byte{'\r'})
	key, line, _ = bytes.Cut(line, []byte{' '})
	f, s, _ := bytes.Cut(line, []byte{' '})
	flags, ok1 := parseUint(f)
	size, ok2 := parseUint(s)
	if !ok1 || !ok2 || size > maxValueLen {
		return nil, 0, nil, -1
	}
	n = i + 1 + int(size) + 2
	if len(buf) < n {
		return nil, 0, nil, 0
	}
	if buf[n-2] != '\r' || buf[n-1] != '\n' {
		return nil, 0, nil, -1
	}
	return key, flags, buf[i+1 : i+1+int(size)], n
}

func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}
