package main

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
)

// The generator owns every byte the program receives: keys, values, the
// operation mix and the key distribution all come from the functions in
// this file, seeded by -seed. Nothing here may import the repo's own
// workload, harness or load-generator packages — a clean-up of those must
// not be able to move the benchmark's numbers.

const golden = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 output function applied to x+golden: a stateless
// 64-bit scramble used for key tails, value offsets and flags.
func mix64(x uint64) uint64 {
	z := x + golden
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	v := mix64(r.s)
	r.s += golden
	return v
}

// intn returns a value in [0, n) by multiply-shift range reduction.
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^s by inverting a
// precomputed CDF — bounded, exact, and a pure function of the uniform draw.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// Keys are 20 bytes on the wire: the id as 8 decimal digits (so the
// order-preserving 8-byte prefix the ordered keyspace indexes by is unique
// per key and id order is lexicographic order), a colon, and 11 hex digits
// of the scrambled id. Ids stay below 10^7, so the first digit is always 0;
// from the middle of the workload's keyspace upwards that byte carries its
// high bit. An ordered server splits the prefix space evenly over its
// shards and plain ASCII fills only the lower half of it; with the high bit
// the pinned and the unpinned half of the keyspace land on the two halves
// of that space, so both shards of `-ordered -shards 2` hold data and a
// scan over the midpoint crosses from one to the other. Hash-mode servers
// see 20 opaque bytes either way.
const (
	keyLen     = 20
	keyHighBit = 0x80
)

func appendKey(dst []byte, wl *workload, id uint32) []byte {
	var k [keyLen]byte
	v := id
	for i := 7; i >= 0; i-- {
		k[i] = byte('0' + v%10)
		v /= 10
	}
	if id >= uint32(wl.keys/2) {
		k[0] |= keyHighBit
	}
	k[8] = ':'
	h := mix64(uint64(id))
	for i := keyLen - 1; i > 8; i-- {
		k[i] = "0123456789abcdef"[h&15]
		h >>= 4
	}
	return append(dst, k[:]...)
}

// keyID recovers the id from a key's digits; ok is false when the bytes are
// not a key this generator could have produced for the workload.
func keyID(wl *workload, k []byte) (id uint32, ok bool) {
	if len(k) != keyLen {
		return 0, false
	}
	for i, c := range k[:8] {
		if i == 0 {
			c &^= keyHighBit
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint32(c-'0')
	}
	var want [keyLen]byte
	return id, string(appendKey(want[:0], wl, id)) == string(k)
}

// Values are a deterministic function of the key, so every returned byte is
// checkable without the oracle tracking writes: value(id) is a window of one
// fixed pseudo-random pattern, starting at an offset scrambled from the id.
const (
	patternLen  = 1 << 16
	maxValueLen = 1 << 10
)

var pattern = func() []byte {
	p := make([]byte, patternLen+maxValueLen)
	r := rng{s: 0xA5C1}
	for i := 0; i < len(p); i += 8 {
		v := r.next()
		for j := 0; j < 8; j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	return p
}()

func valueOf(id uint32, size int) []byte {
	off := mix64(uint64(id)^0x5bd1e995) % patternLen
	return pattern[off : off+uint64(size)]
}

func flagsOf(id uint32) uint32 { return uint32(mix64(uint64(id)) >> 32) }

type opKind uint8

const (
	opGet opKind = iota // Search on the library workload
	opSet               // Insert
	opSetExpiring
	opDelete // Remove
	opScan
)

// op is one request of a tape. end is the offset one past its wire encoding
// in tape.enc (unused on the library workload).
type op struct {
	kind opKind
	id   uint32
	end  uint32
}

// tape is one connection's (or one goroutine's) fixed request sequence. The
// drivers loop over it; since values depend only on keys, replaying it is
// idempotent for the oracle.
type tape struct {
	ops []op
	enc []byte
}

// span returns the wire bytes of ops [i, j).
func (t *tape) span(i, j int) []byte {
	start := uint32(0)
	if i > 0 {
		start = t.ops[i-1].end
	}
	return t.enc[start:t.ops[j-1].end]
}

// prefix returns the tape cut to its first n ops.
func (t *tape) prefix(n int) *tape {
	n = min(n, len(t.ops))
	return &tape{ops: t.ops[:n], enc: t.enc[:t.ops[n-1].end]}
}

// key returns the (first) key of op i inside its wire encoding.
func (t *tape) key(i int) []byte {
	b := t.span(i, i+1)
	at := 4 // "get " / "set "
	if k := t.ops[i].kind; k == opDelete || k == opScan {
		at = 7 // "delete " / "mrange "
	}
	return b[at : at+keyLen]
}

// scanHi returns the upper-bound key of scan op i.
func (t *tape) scanHi(i int) []byte {
	b := t.span(i, i+1)
	return b[7+keyLen+1 : 7+2*keyLen+1]
}

func (t *tape) add(wl *workload, kind opKind, id uint32) {
	if !wl.lib {
		t.enc = appendRequest(t.enc, wl, kind, id)
	}
	t.ops = append(t.ops, op{kind: kind, id: id, end: uint32(len(t.enc))})
}

// appendRequest appends the memcached text encoding of one request.
func appendRequest(dst []byte, wl *workload, kind opKind, id uint32) []byte {
	switch kind {
	case opGet:
		dst = append(dst, "get "...)
		dst = appendKey(dst, wl, id)
	case opSet, opSetExpiring:
		dst = append(dst, "set "...)
		dst = appendKey(dst, wl, id)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(flagsOf(id)), 10)
		if kind == opSetExpiring {
			dst = append(dst, " 2 "...)
		} else {
			dst = append(dst, " 0 "...)
		}
		dst = strconv.AppendInt(dst, int64(wl.valueLen), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, valueOf(id, wl.valueLen)...)
	case opDelete:
		dst = append(dst, "delete "...)
		dst = appendKey(dst, wl, id)
	case opScan:
		dst = append(dst, "mrange "...)
		dst = appendKey(dst, wl, id)
		dst = append(dst, ' ')
		dst = appendKey(dst, wl, id+uint32(wl.scanLen)-1)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(wl.scanLen), 10)
	}
	return append(dst, '\r', '\n')
}

// keyPicker draws key ids for one workload; the Zipf table is shared by all
// of the workload's tapes.
type keyPicker struct {
	wl *workload
	z  *zipf
}

func newKeyPicker(wl *workload) *keyPicker {
	p := &keyPicker{wl: wl}
	if wl.zipfS > 0 {
		p.z = newZipf(wl.keys, wl.zipfS)
	}
	return p
}

// draw returns an id in [0, keys). Zipf ranks are scattered over the
// keyspace by an odd multiplier (a bijection, keys being a power of two) so
// the hot keys fall on both halves and on every shard.
func (p *keyPicker) draw(r *rng) uint32 {
	if p.z == nil {
		return uint32(r.intn(uint64(p.wl.keys)))
	}
	return uint32(p.z.rank(r.float())) * 0x9E3779B1 & uint32(p.wl.keys-1)
}

// buildTape generates worker's request tape for the run seed. The same
// (workload, seed, worker) always yields the same tape, byte for byte.
func buildTape(wl *workload, p *keyPicker, seed uint64, worker int) *tape {
	r := rng{s: mix64(seed) ^ mix64(uint64(worker)<<32|uint64(wl.index))}
	t := &tape{ops: make([]op, 0, wl.tapeOps)}
	half := uint32(wl.keys / 2)
	for i := 0; i < wl.tapeOps; i++ {
		kind := wl.pickKind(r.intn(100), r.intn(100))
		id := p.draw(&r)
		switch {
		case kind == opGet && r.intn(100) < uint64(wl.absentGetPct):
			id += uint32(wl.keys) // never stored
		case kind == opScan:
			id %= uint32(wl.keys - wl.scanLen + 1)
		case kind == opDelete || kind == opSetExpiring || (wl.setsUnpinned && kind == opSet):
			id = half + id%half // only the unpinned half ever loses a key
		}
		t.add(wl, kind, id)
	}
	return t
}

// shuffledIDs returns the ids [0, n) in a seeded random order: the order
// structures are preloaded in, so an unbalanced tree gets the random shape
// the paper's protocol gives it and not a degenerate list.
func shuffledIDs(n uint32, seed uint64) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	r := rng{s: mix64(seed ^ 0x5eed)}
	for i := len(ids) - 1; i > 0; i-- {
		j := r.intn(uint64(i + 1))
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids
}

// sequentialTape encodes one request of the given kind for each id in
// [lo, hi): the preload (sets) and the read-back (gets).
func sequentialTape(wl *workload, kind opKind, lo, hi uint32) *tape {
	t := &tape{ops: make([]op, 0, hi-lo)}
	for id := lo; id < hi; id++ {
		t.add(wl, kind, id)
	}
	return t
}
