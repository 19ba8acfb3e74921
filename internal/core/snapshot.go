// Snapshotter: the consistent-cut enumeration capability.
//
// A snapshot differs from a plain ForEach in what it promises under
// concurrency. ForEach observes each element "at some point during the
// call"; Snapshot promises a *cut*: one traversal in which every yielded
// (key, value) pair was simultaneously live at some instant during the
// call, no key is yielded twice, and — for the ordered families — it is one
// traversal of the structure itself. That is exactly the guarantee a
// persistence layer needs: each record in the snapshot file was a real
// state of its key inside the snapshot window.
//
// The ordered families (sorted lists, skip lists, BSTs) get this natively:
// their Ascend iterators are already single safe concurrent walks over
// immutable-key, GC-owned nodes, so OrderedVia — which every one of them
// embeds — serves Snapshot straight through Ascend. The hash tables fall
// back to ForEach, which still observes each bucket at one instant; callers
// that need the stronger single-walk cut should prefer a natively
// Snapshotter backend (Caps reports which is which, like Ordered).
package core

// Snapshotter is the consistent-cut enumeration interface.
type Snapshotter interface {
	// Snapshot calls yield for every element until yield returns false.
	// Each yielded pair was live at some instant during the call and no
	// key is yielded twice. Enumeration order is unspecified (the ordered
	// families happen to ascend).
	Snapshot(yield func(k Key, v Value) bool)
}

// iterSnapshotter adapts any Iterable to Snapshotter through the fallback:
// ForEach already observes each element at one instant and visits each key
// at most once, which satisfies the cut contract per element — it just
// lacks the ordered families' single walk.
type iterSnapshotter struct{ it Iterable }

func (s iterSnapshotter) Snapshot(yield func(Key, Value) bool) { s.it.ForEach(yield) }

// SnapshotterOf returns a consistent-cut enumerator for s and reports
// whether it is the structure's own (native == true) or the ForEach
// fallback. Mirrors OrderedOf. The second return is false for sets that
// implement neither interface (no structure in this library does — every
// registered algorithm is at least Iterable — but out-of-tree sets may);
// in that case the Snapshotter is nil.
func SnapshotterOf(s Set) (sn Snapshotter, native bool) {
	if sn, ok := s.(Snapshotter); ok {
		return sn, true
	}
	if it, ok := s.(Iterable); ok {
		return iterSnapshotter{it}, false
	}
	return nil, false
}

// Snapshot serves the consistent-cut enumeration over the single Ascend
// walk. Every ordered structure in the library embeds OrderedVia, so the
// whole ordered matrix — lists, skip lists, BSTs — gains native Snapshotter
// here: one iterator pass.
func (o OrderedVia) Snapshot(yield func(Key, Value) bool) { o.Ascend(0, yield) }

// Snapshot on the generic wrapper forwards to the implementation's own cut
// when it has one and falls back to ForEach otherwise, so SnapshotterOf
// never downgrades a native structure that reaches it wrapped. (Snapshotter
// is deliberately not part of the Extended interface: it is a cold-path
// capability, probed on demand.)
func (w *extWrap) Snapshot(yield func(Key, Value) bool) {
	if w.sn != nil {
		w.sn.Snapshot(yield)
		return
	}
	w.ForEach(yield)
}
