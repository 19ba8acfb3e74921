package main

import (
	"bytes"
	"testing"
)

func testTape(wl *workload, seed uint64, worker int) *tape {
	small := *wl
	small.tapeOps = 4096
	return buildTape(&small, newKeyPicker(&small), seed, worker)
}

func TestTapeIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b := testTape(wl, 7, 0), testTape(wl, 7, 0)
		if !bytes.Equal(a.enc, b.enc) || len(a.ops) != len(b.ops) {
			t.Fatalf("%s: same seed, different tape", wl.name)
		}
		for i := range a.ops {
			if a.ops[i] != b.ops[i] {
				t.Fatalf("%s: same seed, op %d differs", wl.name, i)
			}
		}
		for name, other := range map[string]*tape{"seed": testTape(wl, 8, 0), "worker": testTape(wl, 7, 1)} {
			same := 0
			for i := range a.ops {
				if a.ops[i].id == other.ops[i].id {
					same++
				}
			}
			if same > len(a.ops)/2 {
				t.Errorf("%s: another %s repeats %d of %d keys", wl.name, name, same, len(a.ops))
			}
		}
	}
}

func TestTapeKeepsThePinnedHalf(t *testing.T) {
	for _, wl := range workloads {
		tp := testTape(wl, 3, 0)
		counts := map[opKind]int{}
		for i, o := range tp.ops {
			counts[o.kind]++
			half, keys := uint32(wl.keys/2), uint32(wl.keys)
			switch {
			case (o.kind == opDelete || o.kind == opSetExpiring) && (o.id < half || o.id >= keys):
				t.Fatalf("%s: op %d removes or expires id %d outside the unpinned half", wl.name, i, o.id)
			case o.kind == opSet && o.id >= keys, wl.setsUnpinned && o.kind == opSet && o.id < half:
				t.Fatalf("%s: op %d stores id %d", wl.name, i, o.id)
			case o.kind == opScan && int(o.id)+wl.scanLen > wl.keys:
				t.Fatalf("%s: scan %d from id %d leaves the keyspace", wl.name, i, o.id)
			case o.kind == opGet && o.id >= keys && wl.absentGetPct == 0:
				t.Fatalf("%s: op %d gets absent id %d", wl.name, i, o.id)
			}
			if !wl.lib {
				if id, ok := keyID(wl, tp.key(i)); !ok || id != o.id {
					t.Fatalf("%s: op %d encodes key %q for id %d", wl.name, i, tp.key(i), o.id)
				}
			}
		}
		// The mix is within a few points of the table.
		for kind, pct := range map[opKind]int{opGet: wl.getPct, opDelete: wl.deletePct, opScan: wl.scanPct} {
			got := 100 * counts[kind] / len(tp.ops)
			if got < pct-3 || got > pct+3 {
				t.Errorf("%s: kind %d is %d%% of the tape, want %d%%", wl.name, kind, got, pct)
			}
		}
	}
}

func TestKeysAndValues(t *testing.T) {
	wl := findWorkload("wire-scan") // 65536 keys
	var prev []byte
	for _, id := range []uint32{0, 1, 9, 10, 4095, 32767, 32768, 65535, 131071, 9999999} {
		k := appendKey(nil, wl, id)
		if len(k) != keyLen {
			t.Fatalf("key of %d is %d bytes", id, len(k))
		}
		if got, ok := keyID(wl, k); !ok || got != id {
			t.Fatalf("keyID(%q) = %d, %v", k, got, ok)
		}
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("keys not in id order: %q then %q", prev, k)
		}
		// The pinned half sorts into the lower half of the 8-byte prefix
		// space and the rest into the upper: the two shards of wire-scan.
		if upper := k[0] >= 0x80; upper != (id >= 32768) {
			t.Fatalf("key %q of id %d is on the wrong half of the prefix space", k, id)
		}
		prev = k
	}
	bad := appendKey(nil, wl, 42)
	bad[keyLen-1] ^= 1
	if _, ok := keyID(wl, bad); ok {
		t.Error("keyID accepted a key with a wrong tail")
	}
	bad = appendKey(nil, wl, 42)
	bad[0] |= keyHighBit
	if _, ok := keyID(wl, bad); ok {
		t.Error("keyID accepted a pinned key on the upper half")
	}
	if bytes.Equal(valueOf(1, 64), valueOf(2, 64)) {
		t.Error("two keys share a value")
	}
	if len(valueOf(7, maxValueLen)) != maxValueLen {
		t.Error("largest value is short")
	}
}

func TestZipfIsBoundedAndSkewed(t *testing.T) {
	z := newZipf(1024, 1.1)
	r := rng{s: 1}
	hot := 0
	for i := 0; i < 20000; i++ {
		k := z.rank(r.float())
		if k < 0 || k >= 1024 {
			t.Fatalf("rank %d out of range", k)
		}
		if k < 10 {
			hot++
		}
	}
	if hot < 20000/3 {
		t.Errorf("the 10 hottest of 1024 keys drew %d of 20000", hot)
	}
	if z.rank(0) != 0 || z.rank(1) != 1023 {
		t.Errorf("extreme draws map to %d and %d", z.rank(0), z.rank(1))
	}
}

func TestShuffledIDsIsAPermutation(t *testing.T) {
	seen := make([]bool, 1000)
	inOrder := 0
	for i, id := range shuffledIDs(1000, 5) {
		if seen[id] {
			t.Fatalf("id %d twice", id)
		}
		seen[id] = true
		if int(id) == i {
			inOrder++
		}
	}
	if inOrder > 50 {
		t.Errorf("%d of 1000 ids left in place", inOrder)
	}
}
