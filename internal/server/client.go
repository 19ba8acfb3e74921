package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
)

// errNoKeys rejects a keyless retrieval before it reaches the wire: a bare
// "get\r\n" is a malformed frame the server answers with CLIENT_ERROR,
// which would desynchronize every response queued behind it.
var errNoKeys = errors.New("client: get requires at least one key")

// Client speaks the memcached text protocol over one connection. The
// synchronous methods (Get, Set, …) send, flush, and read the response.
// The Send*/Recv* halves expose the wire's natural pipelining: queue any
// number of requests, Flush once, then receive the responses in order.
// A Client is not safe for concurrent use; open one per goroutine.
type Client struct {
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	scratch [24]byte // number formatting without fmt
}

// Dial connects to a memcached-protocol server.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.(*net.TCPConn).SetNoDelay(true)
	return &Client{
		c:  c,
		br: newReader(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}, nil
}

// Close sends quit and closes the connection.
func (c *Client) Close() error {
	fmt.Fprintf(c.bw, "quit\r\n")
	c.bw.Flush()
	return c.c.Close()
}

// Abort closes the transport without touching the buffers. Unlike every
// other method it is safe to call from another goroutine, to unblock a
// Client whose owner is mid-send or mid-receive.
func (c *Client) Abort() error { return c.c.Close() }

// Flush pushes queued requests to the server.
func (c *Client) Flush() error { return c.bw.Flush() }

// Entry is one retrieved value.
type Entry struct {
	Key   string
	Flags uint32
	CAS   uint64
	Data  []byte
}

// --- pipelined send half ---

// SendGet queues a get (or gets, when withCAS) for the given keys. An empty
// key list is rejected without writing anything — the frame it would emit is
// malformed, and a pipelined caller must not poison its own response stream.
func (c *Client) SendGet(withCAS bool, keys ...string) error {
	if len(keys) == 0 {
		return errNoKeys
	}
	verb := "get"
	if withCAS {
		verb = "gets"
	}
	c.bw.WriteString(verb)
	for _, k := range keys {
		c.bw.WriteByte(' ')
		c.bw.WriteString(k)
	}
	_, err := c.bw.Write(crlf)
	return err
}

// writeUint appends one space-prefixed decimal to the send buffer without
// allocating.
func (c *Client) writeUint(v uint64) {
	c.bw.WriteByte(' ')
	c.bw.Write(strconv.AppendUint(c.scratch[:0], v, 10))
}

func (c *Client) writeInt(v int64) {
	c.bw.WriteByte(' ')
	c.bw.Write(strconv.AppendInt(c.scratch[:0], v, 10))
}

// SendStore queues a storage command: verb is "set", "add", "replace", or
// "cas" (casid is only written for cas). Allocation-free.
func (c *Client) SendStore(verb, key string, flags uint32, exptime int64, data []byte, casid uint64) error {
	c.bw.WriteString(verb)
	c.bw.WriteByte(' ')
	c.bw.WriteString(key)
	c.writeUint(uint64(flags))
	c.writeInt(exptime)
	c.writeUint(uint64(len(data)))
	if verb == "cas" {
		c.writeUint(casid)
	}
	c.bw.Write(crlf)
	c.bw.Write(data)
	_, err := c.bw.Write(crlf)
	return err
}

// SendMRange queues an ordered range scan: lo <= key <= hi, at most limit
// entries. The response is framed exactly like a get's (VALUE stanzas then
// END), so RecvGet pairs with it. Allocation-free.
func (c *Client) SendMRange(lo, hi string, limit uint64) error {
	c.bw.WriteString("mrange ")
	c.bw.WriteString(lo)
	c.bw.WriteByte(' ')
	c.bw.WriteString(hi)
	c.writeUint(limit)
	_, err := c.bw.Write(crlf)
	return err
}

// SendMMin queues an mmin (smallest entry; get-framed response).
func (c *Client) SendMMin() error {
	_, err := c.bw.WriteString("mmin\r\n")
	return err
}

// SendMMax queues an mmax (largest entry; get-framed response).
func (c *Client) SendMMax() error {
	_, err := c.bw.WriteString("mmax\r\n")
	return err
}

// SendMSnap queues an msnap (on-demand snapshot to the server's configured
// file; replies OK once the file is durable).
func (c *Client) SendMSnap() error {
	_, err := c.bw.WriteString("msnap\r\n")
	return err
}

// MSnap triggers a snapshot synchronously. A nil error means the server
// replied OK: the snapshot file is complete and durable on disk.
func (c *Client) MSnap() error {
	if err := c.SendMSnap(); err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if line != "OK" {
		return fmt.Errorf("msnap: %s", line)
	}
	return nil
}

// MRange scans [lo, hi] synchronously, returning at most limit entries in
// ascending lexicographic order.
func (c *Client) MRange(lo, hi string, limit uint64) ([]Entry, error) {
	if err := c.SendMRange(lo, hi, limit); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	return c.RecvGet()
}

// SendDelete queues a delete. Allocation-free.
func (c *Client) SendDelete(key string) error {
	c.bw.WriteString("delete ")
	c.bw.WriteString(key)
	_, err := c.bw.Write(crlf)
	return err
}

// SendIncrDecr queues an incr or decr. Allocation-free.
func (c *Client) SendIncrDecr(key string, delta uint64, incr bool) error {
	if incr {
		c.bw.WriteString("incr ")
	} else {
		c.bw.WriteString("decr ")
	}
	c.bw.WriteString(key)
	c.writeUint(delta)
	_, err := c.bw.Write(crlf)
	return err
}

// --- pipelined receive half ---

// readLine reads one response line (without CRLF).
func (c *Client) readLine() (string, error) {
	line, err := c.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// RecvGet receives the response of one SendGet: the entries found, in
// server order.
func (c *Client) RecvGet() ([]Entry, error) {
	var out []Entry
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if line == "END" {
			return out, nil
		}
		if err := serverError(line); err != nil {
			return nil, err
		}
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "VALUE" {
			return nil, fmt.Errorf("client: malformed VALUE line %q", line)
		}
		flags, err := strconv.ParseUint(f[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("client: bad flags in %q", line)
		}
		size, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil || size < 0 {
			return nil, fmt.Errorf("client: bad size in %q", line)
		}
		e := Entry{Key: f[1], Flags: uint32(flags)}
		if len(f) >= 5 {
			if e.CAS, err = strconv.ParseUint(f[4], 10, 64); err != nil {
				return nil, fmt.Errorf("client: bad cas in %q", line)
			}
		}
		e.Data = make([]byte, size)
		if _, err := io.ReadFull(c.br, e.Data); err != nil {
			return nil, err
		}
		var term [2]byte
		if _, err := io.ReadFull(c.br, term[:]); err != nil {
			return nil, err
		}
		if term[0] != '\r' || term[1] != '\n' {
			return nil, fmt.Errorf("client: value block not CRLF-terminated")
		}
		out = append(out, e)
	}
}

// readLineSlice reads one response line without allocating; the slice is
// valid until the next read. Response lines always fit the read buffer.
func (c *Client) readLineSlice() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// RecvStored receives a storage response and reports whether it was
// STORED. EXISTS/NOT_STORED/NOT_FOUND report false with no error; error
// responses become errors. Allocation-free on the expected responses.
func (c *Client) RecvStored() (bool, error) {
	line, err := c.readLineSlice()
	if err != nil {
		return false, err
	}
	switch string(line) {
	case "STORED":
		return true, nil
	case "NOT_STORED", "EXISTS", "NOT_FOUND":
		return false, nil
	}
	if err := serverError(string(line)); err != nil {
		return false, err
	}
	return false, fmt.Errorf("client: unexpected storage response %q", line)
}

// RecvDeleted receives a delete response. Allocation-free on the expected
// responses.
func (c *Client) RecvDeleted() (bool, error) {
	line, err := c.readLineSlice()
	if err != nil {
		return false, err
	}
	switch string(line) {
	case "DELETED":
		return true, nil
	case "NOT_FOUND":
		return false, nil
	}
	if err := serverError(string(line)); err != nil {
		return false, err
	}
	return false, fmt.Errorf("client: unexpected delete response %q", line)
}

// --- synchronous convenience methods ---

// Get retrieves one key.
func (c *Client) Get(key string) (Entry, bool, error) {
	if err := c.SendGet(false, key); err != nil {
		return Entry{}, false, err
	}
	if err := c.Flush(); err != nil {
		return Entry{}, false, err
	}
	es, err := c.RecvGet()
	if err != nil || len(es) == 0 {
		return Entry{}, false, err
	}
	return es[0], true, nil
}

// Gets retrieves one key with its CAS token.
func (c *Client) Gets(key string) (Entry, bool, error) {
	if err := c.SendGet(true, key); err != nil {
		return Entry{}, false, err
	}
	if err := c.Flush(); err != nil {
		return Entry{}, false, err
	}
	es, err := c.RecvGet()
	if err != nil || len(es) == 0 {
		return Entry{}, false, err
	}
	return es[0], true, nil
}

// GetMulti retrieves several keys in one round trip.
func (c *Client) GetMulti(keys ...string) (map[string]Entry, error) {
	if err := c.SendGet(false, keys...); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	es, err := c.RecvGet()
	if err != nil {
		return nil, err
	}
	out := make(map[string]Entry, len(es))
	for _, e := range es {
		out[e.Key] = e
	}
	return out, nil
}

func (c *Client) store(verb, key string, flags uint32, exptime int64, data []byte, casid uint64) (bool, error) {
	if err := c.SendStore(verb, key, flags, exptime, data, casid); err != nil {
		return false, err
	}
	if err := c.Flush(); err != nil {
		return false, err
	}
	return c.RecvStored()
}

// Set stores unconditionally.
func (c *Client) Set(key string, flags uint32, exptime int64, data []byte) error {
	ok, err := c.store("set", key, flags, exptime, data, 0)
	if err == nil && !ok {
		return fmt.Errorf("client: set of %q not stored", key)
	}
	return err
}

// Add stores only if absent; reports whether it stored.
func (c *Client) Add(key string, flags uint32, exptime int64, data []byte) (bool, error) {
	return c.store("add", key, flags, exptime, data, 0)
}

// Replace stores only if present; reports whether it stored.
func (c *Client) Replace(key string, flags uint32, exptime int64, data []byte) (bool, error) {
	return c.store("replace", key, flags, exptime, data, 0)
}

// Cas stores only if the item's token still matches; reports whether it
// stored (false covers both EXISTS and NOT_FOUND).
func (c *Client) Cas(key string, flags uint32, exptime int64, data []byte, casid uint64) (bool, error) {
	return c.store("cas", key, flags, exptime, data, casid)
}

// Delete removes a key; reports whether an item was deleted.
func (c *Client) Delete(key string) (bool, error) {
	if err := c.SendDelete(key); err != nil {
		return false, err
	}
	if err := c.Flush(); err != nil {
		return false, err
	}
	return c.RecvDeleted()
}

// Incr adjusts the decimal value under key upward, returning the new
// value; ok is false when the key was absent.
func (c *Client) Incr(key string, delta uint64) (uint64, bool, error) {
	return c.incrDecr(key, delta, true)
}

// Decr adjusts the decimal value under key downward (floored at 0).
func (c *Client) Decr(key string, delta uint64) (uint64, bool, error) {
	return c.incrDecr(key, delta, false)
}

func (c *Client) incrDecr(key string, delta uint64, incr bool) (uint64, bool, error) {
	if err := c.SendIncrDecr(key, delta, incr); err != nil {
		return 0, false, err
	}
	if err := c.Flush(); err != nil {
		return 0, false, err
	}
	line, err := c.readLine()
	if err != nil {
		return 0, false, err
	}
	if line == "NOT_FOUND" {
		return 0, false, nil
	}
	if err := serverError(line); err != nil {
		return 0, false, err
	}
	v, perr := strconv.ParseUint(line, 10, 64)
	if perr != nil {
		return 0, false, fmt.Errorf("client: unexpected incr/decr response %q", line)
	}
	return v, true, nil
}

// Stats retrieves the server's statistics.
func (c *Client) Stats() (map[string]string, error) {
	if _, err := c.bw.WriteString("stats\r\n"); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	out := map[string]string{}
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if line == "END" {
			return out, nil
		}
		if err := serverError(line); err != nil {
			return nil, err
		}
		f := strings.SplitN(line, " ", 3)
		if len(f) == 3 && f[0] == "STAT" {
			out[f[1]] = f[2]
		}
	}
}

// Version retrieves the server's version banner.
func (c *Client) Version() (string, error) {
	if _, err := fmt.Fprintf(c.bw, "version\r\n"); err != nil {
		return "", err
	}
	if err := c.Flush(); err != nil {
		return "", err
	}
	line, err := c.readLine()
	if err != nil {
		return "", err
	}
	if err := serverError(line); err != nil {
		return "", err
	}
	return strings.TrimPrefix(line, "VERSION "), nil
}

// FlushAll empties the server's store.
func (c *Client) FlushAll() error {
	if _, err := c.bw.WriteString("flush_all 0\r\n"); err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if line != "OK" {
		return fmt.Errorf("client: unexpected flush_all response %q", line)
	}
	return nil
}
