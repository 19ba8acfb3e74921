// Store persistence: the consistent-cut snapshot writer and the warm-boot
// loader over internal/snapshot's file format.
//
// SnapshotTo composes the format with the store's existing safety
// machinery instead of inventing new locking: each shard's items are
// enumerated through the facade's Snapshot capability (core.Snapshotter —
// a single traversal) under a shard-local store pin, so value blocks cannot be recycled mid-copy and
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

	"repro/internal/snapshot"
)

// loadBatch bounds how many records load under one pin before the pin is
// recycled: boot-time loading has no concurrent readers to stall, but
// cycling the epoch keeps any one allocator lease bounded all the same.
const loadBatch = 4096

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
func (s *Store) snapshotShard(sw *snapshot.Writer, sh int) error {
	p := s.Pin()
	defer p.Unpin()
	p.enter(sh)
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

// LoadFrom rebuilds the store from a snapshot stream. Records whose
// absolute expiry predates the load are dead on arrival: they are never
// inserted, so they charge neither the reaper nor the loaded count — they
// are tallied separately in Expired. Loaded items get fresh CAS tokens
// (tokens are unique per store lifetime, not per key history; a client
// holding a pre-restart token correctly fails its cas). The stream is
// validated as it is consumed; on a corruption error the store retains
// whatever loaded before it, so callers wanting all-or-nothing should
// verify first (snapshot.VerifyFile) — the server's boot path does.
func (s *Store) LoadFrom(r io.Reader) (LoadResult, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return LoadResult{}, err
	}
	res := LoadResult{Header: sr.Header()}
	if want := sr.Header().Ordered; want != s.sm.Ordered() {
		return res, fmt.Errorf("snapshot ordered=%v but store ordered=%v (key routing differs; refusing to load)", want, s.sm.Ordered())
	}
	now := s.now()
	p := s.Pin()
	defer func() { p.Unpin() }()
	inBatch := 0
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		if rec.ExpireAt != 0 && rec.ExpireAt <= now {
			res.Expired++
			continue
		}
		if inBatch++; inBatch > loadBatch {
			p.Unpin()
			p = s.Pin()
			inBatch = 1
		}
		sh, h := s.sm.RouteBytes(rec.Key)
		it := Item{
			Flags:    rec.Flags,
			Data:     p.alloc(sh, rec.Data),
			CAS:      s.nextCAS(),
			ExpireAt: rec.ExpireAt,
		}
		var retired []byte
		replaced := false
		s.sm.UpdateBytesHashed(sh, h, rec.Key, func(old Item, present bool) (Item, bool) {
			retired = nil
			replaced = present
			if present {
				// Duplicate key in the stream: last record wins,
				// the earlier block goes back to the pool — and
				// Loaded stays a distinct-key count, which is what
				// the stats report against recovered keys.
				retired = old.Data
			}
			return it, true
		})
		p.free(sh, retired)
		if !replaced {
			res.Loaded++
		}
	}
}
