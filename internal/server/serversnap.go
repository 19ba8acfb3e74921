// Server-side persistence lifecycle: warm boot, on-demand and periodic
// snapshots, and the post-mortem stats line.
//
// The division of labor: internal/snapshot owns the bytes and the
// crash-safe file protocol, Store.SnapshotTo/LoadFrom own the consistent
// cut and the rebuild, and this file owns *when* — boot, the msnap verb,
// the ticker, Shutdown — plus the counters that make all of it observable
// through stats.
package server

import (
	"errors"
	"io"
	"os"
	"time"

	"repro/internal/snapshot"
)

// respSnapshotDisabled answers msnap on a server without a snapshot path.
// Recoverable, like respOrderedDisabled: the connection keeps serving.
const respSnapshotDisabled = "SERVER_ERROR snapshot disabled (start with -snapshot)"

// snapFile is what the server knows of the file at SnapshotPath: whether
// its last write of the file, or its boot load from it, succeeded, and the
// size and modification time the file had then.
type snapFile struct {
	ok    bool
	size  int64
	mtime time.Time
}

// TakeSnapshot writes a snapshot of the live keyspace to the configured
// path via the crash-safe protocol (temp file + fsync + atomic rename) and
// returns what it wrote. It always writes; the ticker and Shutdown go
// through snapshotIfChanged instead. Concurrent callers serialize on
// snapMu — at most one snapshot write is in flight — while serving
// continues untouched: the cut holds only one shard's epoch at a time,
// never a store-wide lock.
func (s *Server) TakeSnapshot() (items uint64, size int64, err error) {
	if s.cfg.SnapshotPath == "" {
		return 0, 0, errors.New("server: snapshot disabled (no SnapshotPath)")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.writeSnapshot()
}

// snapshotIfChanged writes a snapshot unless the file already holds the
// store: an update that finds nothing to change stores nothing, and
// rewriting and fsyncing an unchanged keyspace is exactly such an update.
func (s *Server) snapshotIfChanged() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.snapshotCurrent() {
		return nil
	}
	_, _, err := s.writeSnapshot()
	return err
}

// snapshotCurrent reports whether the file at SnapshotPath holds the
// store: no shard changed since the last successful write or boot load,
// and the file still has the size and modification time that write or
// load saw, so nobody replaced, moved or truncated it since. The caller
// holds snapMu.
func (s *Server) snapshotCurrent() bool {
	if !s.snapFile.ok || !s.store.clean() {
		return false
	}
	fi, err := os.Stat(s.cfg.SnapshotPath)
	return err == nil && fi.Size() == s.snapFile.size && fi.ModTime().Equal(s.snapFile.mtime)
}

// writeSnapshot is one snapshot write and its bookkeeping; the caller
// holds snapMu.
func (s *Server) writeSnapshot() (items uint64, size int64, err error) {
	path := s.cfg.SnapshotPath
	size, err = snapshot.WriteFile(path, func(f io.Writer) error {
		var serr error
		items, serr = s.store.SnapshotTo(f)
		return serr
	})
	s.snapFile.ok = false
	if err != nil {
		// The walk cleared the flags of the shards it reached, but their
		// cut never reached the path.
		s.store.markAllDirty()
		s.snapErrs.Add(1)
		return items, size, err
	}
	if fi, serr := os.Stat(path); serr == nil {
		s.snapFile = snapFile{ok: true, size: fi.Size(), mtime: fi.ModTime()}
	}
	s.snapLastUnix.Store(time.Now().Unix())
	s.snapCount.Add(1)
	s.snapItems.Store(items)
	s.snapBytes.Store(uint64(size))
	return items, size, nil
}

// snapshotLoop is the background ticker (Config.SnapshotInterval). It runs
// until stopSnapshotLoop; a tick on an unchanged store writes nothing, and
// errors are counted and logged, never fatal.
func (s *Server) snapshotLoop() {
	defer s.snapWG.Done()
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			if err := s.snapshotIfChanged(); err != nil {
				s.logf("server: background snapshot: %v", err)
			}
		}
	}
}

// stopSnapshotLoop stops the ticker goroutine (if running) and waits for
// any in-flight tick snapshot to finish. Idempotent.
func (s *Server) stopSnapshotLoop() {
	s.snapStopOnce.Do(func() { close(s.snapStop) })
	s.snapWG.Wait()
}

// loadSnapshot is the warm-boot path, called from New when SnapshotPath is
// set. It reads the file once (Store.LoadFrom) and reports whether the
// store is fit to serve. A damaged file — any truncation, any CRC or
// count mismatch — fails the load, possibly after some blocks were
// inserted, and the caller replaces the store with an empty one before
// anything is served: the empty-or-previous guarantee. The failure is
// logged loudly and the file is left in place for the operator. A missing
// file is an ordinary cold boot.
func (s *Server) loadSnapshot() (keep bool) {
	path := s.cfg.SnapshotPath
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.snapErrs.Add(1)
			s.logf("server: snapshot open %s: %v; booting empty", path, err)
		}
		return true // nothing was loaded
	}
	defer f.Close()
	fi, err := f.Stat()
	var res LoadResult
	if err == nil {
		res, err = s.store.LoadFrom(f)
	}
	if err != nil {
		s.snapErrs.Add(1)
		s.logf("server: SNAPSHOT REJECTED: %s failed verification (%v); booting with an EMPTY store — the file is untouched", path, err)
		return false
	}
	// The store holds what the file holds: until a write, there is
	// nothing to snapshot.
	s.store.markClean()
	s.snapFile = snapFile{ok: true, size: fi.Size(), mtime: fi.ModTime()}
	s.loadedItems.Store(res.Loaded)
	s.loadExpired.Store(res.Expired)
	s.loadMicros.Store(time.Since(start).Microseconds())
	s.logf("server: warm restart: loaded %d items from %s in %s (%d already-expired records skipped)",
		res.Loaded, path, time.Since(start).Round(time.Millisecond), res.Expired)
	return true
}

// emitFinalStats prints the post-mortem line, exactly once, whichever path
// closes the server. It lives here on the server (not in cmd/ascyserve's
// signal handler) so embedded and test users get a last word too — a chaos
// harness killing nodes greps for it. Quiet without Config.Logf, like all
// server logging. It reads its eight counters directly: Stats would also
// walk the whole store for curr_items, which the line does not print.
func (s *Server) emitFinalStats() {
	s.finalStats.Do(func() {
		if s.cfg.Logf == nil {
			return
		}
		t := s.wireTotals()
		s.logf("server: final stats: conns=%d gets=%d sets=%d panics=%d shed=%d snapshots=%d snapshot_errors=%d loaded_items=%d",
			s.totalConns.Load(), t.n[cCmdGet], t.n[cCmdSet],
			s.panics.Load(), s.shed.Load(),
			s.snapCount.Load(), s.snapErrs.Load(), s.loadedItems.Load())
	})
}
