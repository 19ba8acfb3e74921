// Package mark stores a lock-free link's (successor, marked) pair in one
// word, the deletion mark in the pointer's low bit, as the paper's C code
// for the Harris, Michael and Fraser structures does: a traversal hop is one
// load, and a CAS compares successor and mark together without allocating.
//
// The word is an unsafe.Pointer and is never converted to *T while tagged.
// A marked word points one byte into its node, and a misaligned *T would
// trip checkptr ("misaligned pointer conversion") under -race. The GC treats
// an unsafe.Pointer into an object's interior as a reference to the object,
// so a node reachable only through marked words stays alive. T must be at
// least 2 bytes in size and alignment: the tagged address then stays inside
// the node, and the low bit of an untagged one is free.
package mark

import (
	"sync/atomic"
	"unsafe"
)

// Ref is a decoded link: successor N and whether the link's owner is
// logically deleted.
type Ref[T any] struct {
	N      *T
	Marked bool
}

// Link is an atomic Ref held as one tagged word. The zero value is
// (nil, unmarked).
type Link[T any] struct{ p unsafe.Pointer }

// nilMarked stands in for the nil successor of a marked word, so a tagged
// word always points inside a real object and never holds address 1.
var nilMarked uint64

// Load atomically reads the link.
func (l *Link[T]) Load() Ref[T] {
	p := atomic.LoadPointer(&l.p)
	if uintptr(p)&1 == 0 {
		return Ref[T]{N: (*T)(p)}
	}
	if p = unsafe.Add(p, -1); p == unsafe.Pointer(&nilMarked) {
		p = nil
	}
	return Ref[T]{N: (*T)(p), Marked: true}
}

// Store atomically writes the link.
func (l *Link[T]) Store(r Ref[T]) { atomic.StorePointer(&l.p, word(r)) }

// CompareAndSwap atomically replaces old with new if the link holds old,
// comparing successor and mark by value.
func (l *Link[T]) CompareAndSwap(old, new Ref[T]) bool {
	return atomic.CompareAndSwapPointer(&l.p, word(old), word(new))
}

// word encodes r as a tagged pointer.
func word[T any](r Ref[T]) unsafe.Pointer {
	p := unsafe.Pointer(r.N)
	if !r.Marked {
		return p
	}
	if p == nil {
		p = unsafe.Pointer(&nilMarked)
	}
	return unsafe.Add(p, 1)
}
