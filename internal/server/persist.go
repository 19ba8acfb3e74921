// Store persistence: the consistent-cut snapshot writer and the warm-boot
// loader over internal/snapshot's file format.
//
// SnapshotTo composes the format with the store's existing safety
// machinery instead of inventing new locking: each shard's items are
// enumerated by one ForEach walk of its structure (ShardSnapshot) under a
// shard-local store pin, so value blocks cannot be recycled mid-copy and
// serving continues on every other shard — and, for the lock-free
// families, on the shard being walked. Liveness is judged at each shard
// pin's single timestamp, the same rule every read path uses; expiry is
// stored as the item's absolute wallclock ExpireAt, so TTLs survive a
// restart byte-for-byte.
//
// The cut this yields is per-key linearizable: every record was that key's
// live value at some instant inside the snapshot window (the walk observes
// each entry once, under the epoch that keeps it coherent). It is not a
// cross-key atomic cut — the same contract the store already documents for
// RangeScan — and it is exactly what the linearizable-cut differential test
// asserts.
package server

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/snapshot"
)

// SnapshotTo writes a consistent cut of the live keyspace to w in the
// internal/snapshot format and returns how many items it wrote. Serving
// continues while the cut is taken: the walk holds no store-wide lock,
// only one shard's epoch at a time.
func (s *Store) SnapshotTo(w io.Writer) (items uint64, err error) {
	sw, err := snapshot.NewWriter(w, snapshot.Header{
		Algo:        s.algo,
		Shards:      uint32(s.sm.NumShards()),
		Ordered:     s.sm.Ordered(),
		CreatedUnix: s.now(),
	})
	if err != nil {
		return 0, err
	}
	for sh := 0; sh < s.sm.NumShards(); sh++ {
		if err := s.snapshotShard(sw, sh); err != nil {
			return sw.Items(), err
		}
	}
	if err := sw.Close(); err != nil {
		return sw.Items(), err
	}
	return sw.Items(), nil
}

// snapshotShard walks one shard under its own pin (one epoch bracket, one
// clock read) and appends its live items.
//
// It clears the shard's dirty flag first. Every write sets the flag after
// it commits (settle), so a write the walk misses — one that commits after
// the walk passed its key — finds the flag clear and sets it again: the
// shard stays dirty until a later walk sees the write. A flush_all epoch
// still in the future will change what the shard serves without any
// write, so while one is pending the flag stays set.
func (s *Store) snapshotShard(sw *snapshot.Writer, sh int) error {
	p := s.Pin()
	defer p.Unpin()
	p.enter(sh)
	if s.flushAt.Load() <= p.now {
		s.dirty[sh].flag.Store(false)
	}
	var werr error
	s.sm.ShardSnapshot(sh, func(k string, it Item) bool {
		if !s.live(it, p.now) {
			return true // dead at the cut's instant: not part of the cut
		}
		// Add copies the key and data into the writer's block buffer
		// while the shard epoch is still open, so the blocks are
		// coherent even if the entry is removed and recycled right
		// after the yield.
		if err := sw.Add([]byte(k), it.Flags, it.ExpireAt, it.Data); err != nil {
			werr = err
			return false
		}
		return true
	})
	return werr
}

// LoadResult reports what a LoadFrom rebuilt.
type LoadResult struct {
	Header  snapshot.Header
	Loaded  uint64 // items inserted into the store
	Expired uint64 // records skipped: already past expiry at load time
}

// LoadFrom rebuilds the store from a snapshot stream in one pass: the
// calling goroutine reads and verifies the blocks, and GOMAXPROCS workers
// insert their records. Records whose absolute expiry predates the load
// are dead on arrival: they are never inserted, so they charge neither the
// reaper nor the loaded count — they are tallied separately in Expired.
//
// Loaded items get fresh CAS tokens (tokens are unique per store lifetime,
// not per key history; a client holding a pre-restart token correctly
// fails its cas). Each block reserves its run of tokens, in stream order,
// before any of its records is inserted, and a record never replaces an
// item with a higher token. Workers insert out of order, but when a key
// appears twice in the stream the later record wins, as in a serial
// replay, and Loaded stays a distinct-key count.
//
// On an error the store keeps what the verified blocks before it inserted,
// so a caller that wants all-or-nothing discards the store, as the
// server's boot does.
func (s *Store) LoadFrom(r io.Reader) (LoadResult, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return LoadResult{}, err
	}
	res := LoadResult{Header: sr.Header()}
	if want := sr.Header().Ordered; want != s.sm.Ordered() {
		return res, fmt.Errorf("snapshot ordered=%v but store ordered=%v (key routing differs; refusing to load)", want, s.sm.Ordered())
	}
	type job struct {
		blk snapshot.Block
		cas uint64 // the token before the block's first record's
	}
	now := s.now()
	workers := runtime.GOMAXPROCS(0)
	jobs := make(chan job, workers)
	bufs := make(chan []byte, 2*workers) // block buffers the workers are done with
	var (
		loaded, expired atomic.Uint64
		wg              sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var l, e uint64
			for j := range jobs {
				bl, be := s.loadBlock(j.blk, j.cas, now)
				l, e = l+bl, e+be
				select {
				case bufs <- j.blk.Buffer():
				default:
				}
			}
			loaded.Add(l)
			expired.Add(e)
		}()
	}
	for {
		var buf []byte
		select {
		case buf = <-bufs:
		default:
		}
		var blk snapshot.Block
		if blk, err = sr.NextBlock(buf); err != nil {
			break
		}
		n := uint64(blk.Len())
		jobs <- job{blk: blk, cas: s.cas.Add(n) - n}
	}
	close(jobs)
	wg.Wait()
	res.Loaded, res.Expired = loaded.Load(), expired.Load()
	if err == io.EOF {
		err = nil
	}
	return res, err
}

// loadBlock inserts one block's live records under one pin, record i with
// token cas+1+i, and returns how many keys it added and how many records
// it skipped as expired at now.
func (s *Store) loadBlock(blk snapshot.Block, cas uint64, now int64) (loaded, expired uint64) {
	p := s.Pin()
	defer p.Unpin()
	blk.Records(func(i int, rec *snapshot.Record) {
		if rec.ExpireAt != 0 && rec.ExpireAt <= now {
			expired++
			return
		}
		sh, h := s.sm.RouteBytes(rec.Key)
		it := Item{
			Flags:    rec.Flags,
			Data:     p.alloc(sh, rec.Data),
			CAS:      cas + 1 + uint64(i),
			ExpireAt: rec.ExpireAt,
		}
		// A duplicate key in the stream: whichever record carries the
		// higher token stays, and the other's block goes back to the
		// pool.
		var t txn
		s.sm.UpdateBytesHashed(sh, h, rec.Key, func(old Item, present bool) (Item, bool) {
			if present && old.CAS > it.CAS {
				return t.to(old, present, old, true)
			}
			return t.to(old, present, it, true)
		})
		p.settle(sh, &t, it)
		if !t.present {
			loaded++
		}
	})
	return loaded, expired
}
