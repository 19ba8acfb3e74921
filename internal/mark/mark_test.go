package mark

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

type node struct {
	key  uint64
	next Link[node]
}

func TestMarkLoadStoreRoundTrip(t *testing.T) {
	var zero Link[node]
	if r := zero.Load(); r != (Ref[node]{}) {
		t.Fatalf("zero Link loads %+v, want (nil, unmarked)", r)
	}
	n := &node{key: 7}
	for _, want := range []Ref[node]{
		{N: nil, Marked: false},
		{N: nil, Marked: true},
		{N: n, Marked: false},
		{N: n, Marked: true},
	} {
		var l Link[node]
		l.Store(want)
		if got := l.Load(); got != want {
			t.Fatalf("Store(%+v) then Load = %+v", want, got)
		}
		if want.N != nil && l.Load().N.key != 7 {
			t.Fatalf("successor of %+v reads key %d, want 7", want, l.Load().N.key)
		}
	}
}

func TestMarkCompareAndSwapComparesSuccessorAndMark(t *testing.T) {
	a, b := &node{key: 1}, &node{key: 2}
	var l Link[node]
	l.Store(Ref[node]{N: a})
	if l.CompareAndSwap(Ref[node]{N: a, Marked: true}, Ref[node]{N: b}) {
		t.Fatal("CAS succeeded though only the mark differs")
	}
	if l.CompareAndSwap(Ref[node]{N: b}, Ref[node]{N: b, Marked: true}) {
		t.Fatal("CAS succeeded though only the successor differs")
	}
	if got := l.Load(); got != (Ref[node]{N: a}) {
		t.Fatalf("failed CASes changed the link to %+v", got)
	}
	if !l.CompareAndSwap(Ref[node]{N: a}, Ref[node]{N: a, Marked: true}) {
		t.Fatal("marking CAS failed on the expected value")
	}
	if l.CompareAndSwap(Ref[node]{N: a}, Ref[node]{N: b}) {
		t.Fatal("CAS against the unmarked value succeeded on a marked link")
	}
	if !l.CompareAndSwap(Ref[node]{N: a, Marked: true}, Ref[node]{N: nil, Marked: true}) {
		t.Fatal("CAS from a marked value failed")
	}
	if got := l.Load(); got != (Ref[node]{Marked: true}) {
		t.Fatalf("link = %+v, want (nil, marked)", got)
	}
}

// TestMarkedWordsKeepNodesAlive: a chain whose every link is marked, reached
// from one untagged root, is exactly what a frozen span of deleted nodes
// looks like. The nodes must survive collections under allocation churn,
// and none may be finalized while the chain references it.
func TestMarkedWordsKeepNodesAlive(t *testing.T) {
	const n = 2000
	var finalized atomic.Int64
	root := &node{key: 0}
	for i, prev := uint64(1), root; i <= n; i++ {
		x := &node{key: i}
		runtime.SetFinalizer(x, func(*node) { finalized.Add(1) })
		prev.next.Store(Ref[node]{N: x, Marked: true})
		prev = x
	}
	// Churn nodes of the same size class, so that a wrongly freed slot
	// is soon overwritten with a poison key.
	var sink []*node
	for round := 0; round < 5; round++ {
		for i := 0; i < 4096; i++ {
			sink = append(sink, &node{key: ^uint64(0)})
			if len(sink) > 1024 {
				sink = sink[:0]
			}
		}
		runtime.GC()
	}
	runtime.KeepAlive(sink)
	i := uint64(0)
	for x := root; x != nil; {
		if x.key != i {
			t.Fatalf("node %d reads key %d: collected while referenced by a marked word", i, x.key)
		}
		r := x.next.Load()
		if r.N != nil && !r.Marked {
			t.Fatalf("link of node %d lost its mark", i)
		}
		x, i = r.N, i+1
	}
	if i != n+1 {
		t.Fatalf("walked %d nodes, want %d", i, n+1)
	}
	if f := finalized.Load(); f != 0 {
		t.Fatalf("%d nodes finalized while the chain referenced them", f)
	}

	// Control: cutting the chain must let the collector finalize it, or
	// the check above proves nothing.
	root.next.Store(Ref[node]{})
	deadline := time.Now().Add(5 * time.Second)
	for finalized.Load() == 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if finalized.Load() == 0 {
		t.Fatal("no node finalized after the chain was cut")
	}
}
