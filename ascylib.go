// Package ascylib is a Go implementation of ASCYLIB, the concurrent search
// data structure (CSDS) library from
//
//	Tudor David, Rachid Guerraoui, Vasileios Trigonakis.
//	"Asynchronized Concurrency: The Secret to Scaling Concurrent Search
//	Data Structures." ASPLOS 2015.
//
// It provides portably scalable linked lists, hash tables, skip lists, and
// binary search trees — the existing state-of-the-art algorithms of the
// paper's Table 1, the ASCY re-engineered variants (harris-opt, fraser-opt,
// the "-no" ablations, urcu-ssmem), and the two algorithms designed from
// scratch with the ASCY patterns: the cache-line hash table CLHT (lock-based
// and lock-free) and the versioned-ticket-lock tree BST-TK.
//
// All sets share one interface over 64-bit keys and values — the paper's
// Search, Insert and Remove, plus ForEach and Size, which counts what
// ForEach yields:
//
//	s := ascylib.MustNew("ht-clht-lb", ascylib.Capacity(1<<16))
//	s.Insert(42, 7)
//	v, ok := s.Search(42)
//	s.Remove(42)
//
// The v2 surface extends every algorithm with Update (atomic
// read-modify-write) and GetOrInsert (Extended, via Extend or NewExtended)
// and with ordered scans Range/Min/Max (Ordered, via OrderedOf) —
// natively where the structure supports them, through correct generic
// fallbacks elsewhere; Algorithm.Caps and `ascybench list` report which.
// The generic facade Map[K, V] carries typed integer keys (order-preserving,
// so Range works on signed keys too) and arbitrary values on the 64-bit
// core:
//
//	m := ascylib.MustNewMap[int64, string]("sl-fraser-opt")
//	m.Put(-3, "hello")
//	m.Range(-10, 10, func(k int64, v string) bool { return true })
//
// ShardedStringMap[V] is the string-keyed map (hashing + collision chains
// over the same structures), for callers — such as the memcached-protocol
// server in internal/server, runnable via cmd/ascyserve — whose keys are
// not integers. It splits the keyspace across S independent shards — the
// paper's "hash tables scale because they are already sharded" observation
// applied one level up, so a hot list or tree becomes S cool ones.
// NewShardedStringMap routes by hash; NewOrderedShardedStringMap routes by
// key range over order-preserving shards, so scans walk the shards in
// order. S = 1 is the unsharded case of either:
//
//	sm := ascylib.MustNewShardedStringMap[[]byte]("ht-clht-lf", 1)
//	sm.Put("user:42", []byte("profile"))
//	om, _ := ascylib.NewOrderedShardedStringMap[int]("sl-fraser-opt", 4)
//	om.Put("apple", 1)
//
// Use Algorithms to enumerate the catalogue, and see DESIGN.md /
// EXPERIMENTS.md for the reproduction of the paper's evaluation.
//
// The ASCY patterns (§5 of the paper), which the compliant implementations
// follow and the instrumentation in internal/perf machine-checks:
//
//	ASCY1: a search involves no waiting, retries, or stores.
//	ASCY2: an update's parse phase stores nothing except for cleanup and
//	       never waits or retries.
//	ASCY3: an update whose parse fails performs no stores at all.
//	ASCY4: a successful update's stores are close in number and region to
//	       the sequential implementation's.
package ascylib

import (
	"repro/internal/core"

	// Register every implementation family with the core registry.
	_ "repro/internal/bst"
	_ "repro/internal/clht"
	_ "repro/internal/hashtable"
	_ "repro/internal/linkedlist"
	_ "repro/internal/skiplist"
)

// Key is a 64-bit element key. Key 0 and key MaxUint64 are reserved as
// sentinels; valid keys are 1..MaxUint64-1.
type Key = core.Key

// Value is a 64-bit opaque value word.
type Value = core.Value

// Set is the common search-data-structure interface: Search, Insert, Remove,
// plus a linear-time ForEach and Size, the number of elements ForEach
// yields (quiescent use, like ASCYLIB's size()).
type Set = core.Set

// Extended is the v2 operation surface: Set plus Update (atomic
// read-modify-write) and GetOrInsert. Obtain one for any
// algorithm with NewExtended or Extend; see Capabilities for whether the
// operations are native or served by the generic fallbacks.
type Extended = core.Extended

// Ordered is the sorted-scan surface: Range, Min, Max. The ordered families
// (lists, skip lists, BSTs) implement it natively; OrderedOf serves it for
// the hash tables through a snapshot-and-sort fallback.
type Ordered = core.Ordered

// UpdateFunc is one read-modify-write step for Extended.Update.
type UpdateFunc = core.UpdateFunc

// Algorithm describes one registered implementation.
type Algorithm = core.Algorithm

// Capabilities reports which v2 operations an algorithm implements natively.
type Capabilities = core.Capabilities

// Option configures construction.
type Option = core.Option

// Structure and synchronization classes, re-exported for filtering the
// catalogue.
const (
	LinkedList = core.LinkedList
	HashTable  = core.HashTable
	SkipList   = core.SkipList
	BST        = core.BST
)

// Capacity sets a hash table's (initial) bucket count.
func Capacity(n int) Option { return core.Capacity(n) }

// MaxLevel sets a skip list's maximum tower height.
func MaxLevel(n int) Option { return core.MaxLevel(n) }

// New constructs the named algorithm. Names are listed by Algorithms; the
// headline ones are "ht-clht-lb", "ht-clht-lf", and "bst-tk".
func New(name string, opts ...Option) (Set, error) { return core.New(name, opts...) }

// MustNew is New, panicking on unknown names.
func MustNew(name string, opts ...Option) Set { return core.MustNew(name, opts...) }

// NewExtended constructs the named algorithm with the full v2 surface:
// native Update/GetOrInsert where the implementation has them,
// correct generic fallbacks elsewhere.
func NewExtended(name string, opts ...Option) (Extended, error) {
	return core.NewExtended(name, opts...)
}

// Extend upgrades any Set from this library to the Extended surface. See
// core.Extend for the fallback atomicity contract.
func Extend(s Set) Extended { return core.Extend(s) }

// OrderedOf returns an ordered view of s; native reports whether the
// structure enumerates in key order itself (true for lists, skip lists, and
// BSTs) or the view snapshots and sorts (hash tables).
func OrderedOf(s Set) (o Ordered, native bool) { return core.OrderedOf(s) }

// Algorithms returns the full catalogue (Table 1 plus the ASCY variants and
// new designs), sorted by structure then name.
func Algorithms() []Algorithm { return core.All() }

// ByStructure filters the catalogue by family.
func ByStructure(s core.Structure) []Algorithm { return core.ByStructure(s) }
