package cluster

import (
	"bufio"
	"errors"

	"repro/internal/server"
)

// Ordered scans across the cluster: scatter-gather. A key's node is a hash
// draw, so a lexicographic range [lo, hi] touches every node — the scan is
// the one operation with no locality to route on. The client fans the
// bounded scan to all nodes (each node enumerates its own slice of the
// range in sorted order, already clamped to the limit), then k-way merges
// the sorted streams and truncates to the limit. Correctness of the
// truncation: every one of the global first-limit keys lives on some node,
// and on that node the keys of the global prefix form a prefix of its own
// sorted in-range stream no longer than limit — so the global answer is
// always contained in the union of the per-node answers, and the merge
// reproduces exactly the bytes one big ordered server would emit.
//
// mmin/mmax are the degenerate form: every node answers its own extreme,
// the client keeps the best.

// clampScanLimit applies the server's own response cap, so the merged
// result obeys the same bound a single server enforces.
func clampScanLimit(limit uint64) uint64 {
	if limit > server.MaxRangeKeys {
		return server.MaxRangeKeys
	}
	return limit
}

// pushScanLimit / popScanLimit keep the pending mrange limits aligned with
// the route ring's broadcasts (same SPSC discipline: each scan's send is
// sequenced before its receive).
func (c *Client) pushScanLimit(limit uint64) {
	c.scanMu.Lock()
	c.scanLimits = append(c.scanLimits, limit)
	c.scanMu.Unlock()
}

func (c *Client) popScanLimit() uint64 {
	c.scanMu.Lock()
	defer c.scanMu.Unlock()
	if len(c.scanLimits) == 0 {
		return server.MaxRangeKeys
	}
	limit := c.scanLimits[0]
	c.scanLimits = c.scanLimits[1:]
	return limit
}

// broadcastRead queues one read-class request on every node: one route tag
// per node, routeMore chaining all but the last, down nodes degrading per
// the read policy — the same shape a split get's group chain has, so the
// receive half's pop loop needs no new cases.
func (c *Client) broadcastRead(send func(nc *server.Client) error) {
	last := len(c.nstates) - 1
	for n := range c.nstates {
		c.reqs[n]++
		tag := uint32(n)
		if n < last {
			tag |= routeMore
		}
		queued := false
		if nc := c.sendEnter(n); nc != nil {
			err := send(nc)
			queued = c.sendExit(n, nc, err)
		}
		if !queued {
			tag |= c.degTagRead()
		}
		c.routes.push(tag)
	}
}

// SendMRange queues an ordered range scan, fanned to every node. Pair with
// RecvMRange.
func (c *Client) SendMRange(lo, hi string, limit uint64) error {
	limit = clampScanLimit(limit)
	c.pushScanLimit(limit)
	c.broadcastRead(func(nc *server.Client) error { return nc.SendMRange(lo, hi, limit) })
	return nil
}

// SendMMin queues a cluster-wide minimum; pair with RecvMExtreme.
func (c *Client) SendMMin() error {
	c.broadcastRead(func(nc *server.Client) error { return nc.SendMMin() })
	return nil
}

// SendMMax queues a cluster-wide maximum; pair with RecvMExtreme.
func (c *Client) SendMMax() error {
	c.broadcastRead(func(nc *server.Client) error { return nc.SendMMax() })
	return nil
}

// recvScanGroups consumes one broadcast's per-node responses, returning the
// live nodes' (sorted) entry groups. A node that answered with a protocol
// error line (a non-ordered backend refusing the scan) surfaces as that
// *server.ServerError — after every group has still been consumed, so the
// pipelines stay aligned. Degraded nodes synthesize per policy: a miss-read
// degrade silently shortens the scan (that slice of the keyspace is down),
// fail-fast yields ErrNodeDown.
func (c *Client) recvScanGroups() ([][]server.Entry, error) {
	var groups [][]server.Entry
	var firstErr error
	for {
		tag, ok := c.routes.pop()
		if !ok {
			return groups, errNoRoute
		}
		switch {
		case tag&routeDegMiss != 0:
			c.degMisses.Add(1)
		case tag&routeDegErr != 0:
			c.degErrors.Add(1)
			if firstErr == nil {
				firstErr = ErrNodeDown
			}
		default:
			n := int(tag & routeNodeMask)
			nc, synth := c.recvEnter(n)
			if !synth {
				es, rerr := nc.RecvGet()
				var out error
				synth, out = c.recvExit(n, nc, rerr)
				if out != nil && firstErr == nil {
					firstErr = out
				}
				if !synth && out == nil {
					groups = append(groups, es)
				}
			}
			if synth {
				firstErr = c.degradeRead(firstErr)
			}
		}
		if tag&routeMore == 0 {
			return groups, firstErr
		}
	}
}

// mergeScan k-way merges sorted, key-disjoint per-node groups (cluster
// routing puts each key on exactly one node, so no deduplication is
// needed), truncating to limit (0 means unbounded). Linear scan over the
// heads: k is the node count and limit at most MaxRangeKeys, so the merge
// is O(k·limit) on trivially small constants.
func mergeScan(groups [][]server.Entry, limit int) []server.Entry {
	var out []server.Entry
	for limit <= 0 || len(out) < limit {
		best := -1
		for n := range groups {
			if len(groups[n]) == 0 {
				continue
			}
			if best < 0 || groups[n][0].Key < groups[best][0].Key {
				best = n
			}
		}
		if best < 0 {
			break
		}
		out = append(out, groups[best][0])
		groups[best] = groups[best][1:]
	}
	return out
}

// RecvMRange consumes one SendMRange's fan-out and returns the merged scan:
// ascending lexicographic order, truncated to the request's (clamped)
// limit — the same entries, in the same order, a single ordered server
// holding the whole keyspace would return.
func (c *Client) RecvMRange() ([]server.Entry, error) {
	limit := c.popScanLimit()
	groups, err := c.recvScanGroups()
	if err != nil {
		return nil, err
	}
	return mergeScan(groups, int(limit)), nil
}

// RecvMExtreme consumes one SendMMin/SendMMax fan-out, keeping the globally
// smallest (wantMax false) or largest (wantMax true) entry.
func (c *Client) RecvMExtreme(wantMax bool) (server.Entry, bool, error) {
	groups, err := c.recvScanGroups()
	if err != nil {
		return server.Entry{}, false, err
	}
	var best server.Entry
	found := false
	for _, g := range groups {
		for _, e := range g {
			if !found || (wantMax && e.Key > best.Key) || (!wantMax && e.Key < best.Key) {
				best, found = e, true
			}
		}
	}
	return best, found, nil
}

// MRange scans [lo, hi] synchronously across the cluster.
func (c *Client) MRange(lo, hi string, limit uint64) ([]server.Entry, error) {
	if err := c.SendMRange(lo, hi, limit); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	return c.RecvMRange()
}

// --- proxy-side scatter-gather (ServeStream's mrange/mmin/mmax) ---

// planScan forwards one ordered-scan command (mrange, or mmin/mmax via the
// zero-limit extreme form) to every node and returns the receive plan.
// Down nodes degrade like a split get's groups: silently shorter results
// under miss-reads, the degraded error line under fail-fast.
func (c *Client) planScan(kind planKind, cmd *server.Command, send func(nc *server.Client) error) streamPlan {
	p := streamPlan{kind: kind, limit: clampScanLimit(cmd.Delta), isMax: cmd.Op == server.OpMMax}
	for nd := range c.nstates {
		c.reqs[nd]++
		queued := false
		if nc := c.sendEnter(nd); nc != nil {
			serr := send(nc)
			queued = c.sendExit(nd, nc, serr)
		}
		if !queued {
			if c.opts.Policy == DegradedMissReads {
				c.degMisses.Add(1)
			} else {
				c.degErrors.Add(1)
				p.degraded = true
			}
			continue
		}
		p.touched = append(p.touched, int32(nd))
	}
	return p
}

// deliverScan collects a scan plan's per-node responses and writes the
// merged client-facing response: for planMRange the k-way merged VALUE
// stanzas (then END), for planMExtreme the single best VALUE (then END).
// A node that refused the scan (non-ordered backend) makes the whole
// response that node's error line — exactly what the single non-ordered
// server answers — emitted only after every group is consumed, so the
// node pipelines stay aligned.
func (c *Client) deliverScan(bw *bufio.Writer, p *streamPlan, groups [][]server.Entry) error {
	errLine := ""
	for _, nd := range p.touched {
		n := int(nd)
		groups[nd] = nil
		nc, synth := c.recvEnter(n)
		if !synth {
			es, rerr := nc.RecvGet()
			var out error
			synth, out = c.recvExit(n, nc, rerr)
			if out != nil {
				var se *server.ServerError
				if !errors.As(out, &se) {
					return out
				}
				if errLine == "" {
					errLine = se.Line
				}
			} else if !synth {
				groups[nd] = es
			}
		}
		if synth {
			if c.opts.Policy == DegradedMissReads {
				c.degMisses.Add(1)
			} else {
				c.degErrors.Add(1)
				p.degraded = true
			}
		}
	}
	if errLine != "" {
		_, err := bw.WriteString(errLine + "\r\n")
		return err
	}
	if p.degraded {
		_, err := bw.WriteString(degradedLine + "\r\n")
		return err
	}
	if p.kind == planMExtreme {
		best := -1
		for _, nd := range p.touched {
			if len(groups[nd]) == 0 {
				continue
			}
			if best < 0 ||
				(p.isMax && groups[nd][0].Key > groups[best][0].Key) ||
				(!p.isMax && groups[nd][0].Key < groups[best][0].Key) {
				best = int(nd)
			}
		}
		if best >= 0 {
			writeValue(bw, &groups[best][0], false)
		}
		_, err := bw.WriteString("END\r\n")
		return err
	}
	for emitted := 0; emitted < int(p.limit); emitted++ {
		best := -1
		for _, nd := range p.touched {
			if len(groups[nd]) == 0 {
				continue
			}
			if best < 0 || groups[nd][0].Key < groups[best][0].Key {
				best = int(nd)
			}
		}
		if best < 0 {
			break
		}
		writeValue(bw, &groups[best][0], false)
		groups[best] = groups[best][1:]
	}
	_, err := bw.WriteString("END\r\n")
	return err
}
