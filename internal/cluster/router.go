// Package cluster holds the rendezvous (highest-random-weight) placement
// function that maps a key onto one of N nodes. It is kept as the
// benchmark's routing rung: the per-key cost a client would pay to spread a
// string keyspace across N independent servers.
//
// Routing hashes with the same xorshift-multiply finalized FNV-1a hash the
// sharded facade routes with: for a key hash h, every node i scores
// mix(h ^ seed_i) and the highest score wins. Placement is a pure function
// of (key, node count), and growing N→N+1 moves exactly the keys the new
// node wins — an expected 1/(N+1) fraction — while every other key stays
// put.
package cluster

import ascylib "repro"

// Router maps key hashes onto node indices by rendezvous hashing. A Router
// is immutable and safe for concurrent use.
type Router struct {
	seeds []uint64
}

// NewRouter builds a router over n nodes (n < 1 is treated as 1). Node i's
// score stream is seeded from its position, so the mapping is a pure,
// restart-stable function of (key, n).
func NewRouter(n int) *Router {
	if n < 1 {
		n = 1
	}
	r := &Router{seeds: make([]uint64, n)}
	x := uint64(0xA5C1_5E4D)
	for i := range r.seeds {
		r.seeds[i] = splitmix64(&x)
	}
	return r
}

// Nodes returns the node count.
func (r *Router) Nodes() int { return len(r.seeds) }

// splitmix64 is the standard seed sequencer (same as the xrand package's).
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NodeOf returns the node index key routes to.
func (r *Router) NodeOf(key string) int { return r.NodeOfHash(ascylib.HashString(key)) }

// NodeOfBytes is NodeOf for a []byte key (zero-alloc, same placement).
func (r *Router) NodeOfBytes(key []byte) int { return r.NodeOfHash(ascylib.HashBytes(key)) }

// NodeOfHash routes a raw key hash (ascylib.HashString/HashBytes): the
// xorshift-multiply finalizer the sharded facade scrambles FNV with — raw
// FNV's top bits are too weak to route on — then the highest-random-weight
// draw across the nodes. With one node it degenerates to 0 at no cost.
func (r *Router) NodeOfHash(h uint64) int {
	h ^= h >> 33
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	best, bestScore := 0, hrwScore(h, r.seeds[0])
	for i := 1; i < len(r.seeds); i++ {
		if s := hrwScore(h, r.seeds[i]); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// hrwScore mixes a finalized key hash with a node seed into that node's
// weight for the key. The mix must decorrelate nodes per key (the finalized
// hash alone orders every key the same way for every node); splitmix64's
// finalizer does, cheaply.
func hrwScore(h, seed uint64) uint64 {
	z := h ^ seed
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
