// Package core defines the concurrent-search-data-structure (CSDS) interface
// shared by every implementation in the library, together with the algorithm
// registry that backs the public facade and the benchmark harness.
//
// The interface is the paper's basic search-data-structure interface (§2):
// a set of (key, value) elements with search, insert, and remove, where keys
// are 64-bit and values are 64-bit opaque words. Updates conceptually run in
// two phases — parse, then modify — and the ASCY patterns constrain how each
// phase may touch shared memory.
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/perf"
	"repro/internal/ssmem"
)

// Key is a 64-bit element key. Key 0 is reserved as the "no element"
// sentinel (the in-place CLHT buckets use 0 to mean an empty slot); workloads
// draw keys from [1..2N] exactly as in the paper, so 0 never occurs.
type Key uint64

// Value is a 64-bit opaque value word, as in the paper's evaluation
// ("we use 64-bit long keys and values"). Store an index or a handle to
// attach larger records; examples/kvstore shows the pattern.
type Value uint64

// Set is the basic CSDS interface from §2 of the paper. Implementations are
// safe for concurrent use by any number of goroutines unless their registry
// entry has Safe == false (the deliberately unsynchronized "async" upper
// bounds).
type Set interface {
	// Search looks for the element with the given key and returns its
	// value. The second result reports whether the element was found.
	Search(k Key) (Value, bool)
	// Insert adds the element if no element with the same key exists.
	// It reports whether the insertion took place.
	Insert(k Key, v Value) bool
	// Remove deletes the element with the given key, returning its value.
	// The second result reports whether an element was removed.
	Remove(k Key) (Value, bool)
	// Size counts the elements currently in the set. It is linear time,
	// not linearizable under concurrency, and intended for tests and
	// quiescent verification — exactly like ASCYLIB's size().
	Size() int
}

// Instrumented is implemented by every structure in this library. The *Ctx
// variants thread a worker-local perf context through the operation so the
// harness can account memory events and phase timings exactly and without
// contention. Passing a nil context is equivalent to the plain methods.
type Instrumented interface {
	Set
	SearchCtx(c *perf.Ctx, k Key) (Value, bool)
	InsertCtx(c *perf.Ctx, k Key, v Value) bool
	RemoveCtx(c *perf.Ctx, k Key) (Value, bool)
}

// Structure identifies one of the four data-structure families studied in
// the paper.
type Structure string

// The four families of Table 1.
const (
	LinkedList Structure = "linkedlist"
	HashTable  Structure = "hashtable"
	SkipList   Structure = "skiplist"
	BST        Structure = "bst"
)

// Structures returns the four families in the paper's presentation order.
func Structures() []Structure {
	return []Structure{LinkedList, HashTable, SkipList, BST}
}

// Class is the paper's synchronization classification (Table 1).
type Class string

// Synchronization classes: sequential, fully lock-based, (hybrid)
// lock-based, and lock-free.
const (
	Seq            Class = "seq"
	FullyLockBased Class = "flb"
	LockBased      Class = "lb"
	LockFree       Class = "lf"
)

// Config carries construction parameters shared across implementations.
// Use the Option helpers; zero fields are replaced by defaults.
type Config struct {
	// Buckets is the (initial) bucket count for hash tables. CLHT rounds
	// it up to a power of two.
	Buckets int
	// MaxLevel bounds skip-list towers.
	MaxLevel int
	// ReadOnlyFail enables ASCY3: an update whose parse is unsuccessful
	// performs no stores and fails read-only. The "-no" variants in
	// Figure 6 are the same algorithms with this disabled.
	ReadOnlyFail bool
	// AsyncStepLimit bounds traversal length in the unsynchronized
	// sequential structures when they are raced, so that a malformed
	// structure (the paper observes these) cannot hang the harness.
	// 0 means no bound.
	AsyncStepLimit int
}

// DefaultConfig returns the defaults used throughout the evaluation:
// 1024 buckets, skip lists up to 2^21 expected elements, ASCY3 on, and a
// generous async traversal bound.
func DefaultConfig() Config {
	return Config{
		Buckets:        1024,
		MaxLevel:       21,
		ReadOnlyFail:   true,
		AsyncStepLimit: 1 << 22,
	}
}

// Validate reports whether the configuration is constructible. New applies
// it after the options, so nonsense like Capacity(0) is rejected before a
// structure is built instead of failing obscurely later.
func (c Config) Validate() error {
	if c.Buckets < 1 {
		return fmt.Errorf("core: Buckets must be >= 1, got %d (Capacity option)", c.Buckets)
	}
	if c.MaxLevel < 1 || c.MaxLevel > 64 {
		return fmt.Errorf("core: MaxLevel must be in [1, 64], got %d", c.MaxLevel)
	}
	if c.AsyncStepLimit < 0 {
		return fmt.Errorf("core: AsyncStepLimit must be >= 0, got %d", c.AsyncStepLimit)
	}
	return nil
}

// Option mutates a Config.
type Option func(*Config)

// Capacity sets the (initial) hash-table bucket count.
func Capacity(n int) Option { return func(c *Config) { c.Buckets = n } }

// MaxLevel sets the maximum skip-list level.
func MaxLevel(n int) Option { return func(c *Config) { c.MaxLevel = n } }

// Recycler is implemented by structures that recycle their own nodes
// through an SSMEM allocator; ht-urcu-ssmem is the one such structure, as in
// the paper. Every other structure's nodes belong to the Go GC. RecycleStats
// aggregates the allocator counters so the harness and EXPERIMENTS can
// report node reuse rates.
type Recycler interface {
	RecycleStats() ssmem.Stats
}

// Algorithm is a registry entry: one named CSDS implementation.
type Algorithm struct {
	// Name is the registry key, e.g. "ll-harris", "ht-clht-lf", "bst-tk".
	Name string
	// Structure is the data-structure family.
	Structure Structure
	// Class is the synchronization classification from Table 1.
	Class Class
	// Desc is the one-line description (mirrors Table 1).
	Desc string
	// Safe reports whether the implementation is linearizable under
	// concurrency. The "async" sequential upper bounds set this false.
	Safe bool
	// ASCY flags the implementations the paper identifies as
	// ASCY-compliant (the re-engineered and from-scratch designs).
	ASCY bool
	// Ordered reports that the structure stores elements in key order and
	// implements the Ordered interface natively (sorted linked lists,
	// skip lists, BSTs). Unordered structures still serve Range through
	// the OrderedOf fallback.
	Ordered bool
	// New constructs an instance.
	New func(cfg Config) Set
}

// Capabilities reports which parts of the v2 surface an algorithm implements
// natively; the rest are served by the generic fallbacks in Extend and
// OrderedOf. Probed by constructing a small throwaway instance, so it always
// reflects the implementation rather than hand-maintained flags.
type Capabilities struct {
	// NativeUpdate: Update is atomic against every operation (not just
	// other Updates; see Extend's fallback contract).
	NativeUpdate bool
	// NativeGetOrInsert: get-or-insert in one structure pass.
	NativeGetOrInsert bool
	// NativeForEach: the structure enumerates its own elements.
	NativeForEach bool
	// NativeRange: ordered scans traverse the structure directly instead
	// of snapshot-and-sort.
	NativeRange bool
}

// Caps probes the algorithm's native capabilities.
func (a Algorithm) Caps() Capabilities {
	cfg := DefaultConfig()
	cfg.Buckets = 8
	cfg.MaxLevel = 4
	s := a.New(cfg)
	var c Capabilities
	_, c.NativeUpdate = s.(Updater)
	_, c.NativeGetOrInsert = s.(GetOrInserter)
	_, c.NativeForEach = s.(Iterable)
	_, c.NativeRange = s.(Ordered)
	return c
}

var (
	regMu    sync.RWMutex
	registry = map[string]Algorithm{}
)

// Register adds an algorithm to the registry. It panics on duplicate names
// or a nil constructor; registration happens in package init functions, so
// misuse is a programming error.
func Register(a Algorithm) {
	if a.New == nil {
		panic("core: Register with nil constructor: " + a.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[a.Name]; dup {
		panic("core: duplicate algorithm " + a.Name)
	}
	registry[a.Name] = a
}

// Get looks up an algorithm by name.
func Get(name string) (Algorithm, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	a, ok := registry[name]
	return a, ok
}

// New constructs an instance of the named algorithm with the given options
// applied over DefaultConfig.
func New(name string, opts ...Option) (Set, error) {
	a, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q", name)
	}
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid configuration for %q: %w", name, err)
	}
	return a.New(cfg), nil
}

// NewExtended constructs the named algorithm and wraps it with the full v2
// operation surface (Extend): native methods where the implementation has
// them, generic fallbacks elsewhere.
func NewExtended(name string, opts ...Option) (Extended, error) {
	s, err := New(name, opts...)
	if err != nil {
		return nil, err
	}
	return Extend(s), nil
}

// MustNew is New for contexts where the name is a compile-time constant.
func MustNew(name string, opts ...Option) Set {
	s, err := New(name, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// All returns every registered algorithm sorted by structure then name.
func All() []Algorithm {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Algorithm, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Structure != out[j].Structure {
			return out[i].Structure < out[j].Structure
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByStructure returns the registered algorithms of one family, sorted by
// name.
func ByStructure(s Structure) []Algorithm {
	var out []Algorithm
	for _, a := range All() {
		if a.Structure == s {
			out = append(out, a)
		}
	}
	return out
}
