//go:build race

package server

// raceEnabled: under the race detector sync.Pool randomly drops Puts, so
// a pooled Pin allocates and the zero-allocation gates only hold without
// -race. The value pools' reuse assertions hold under -race too: a dropped
// epoch allocator is re-adopted from the lease pool's table of every
// allocator it made, so its pending garbage is still reused.
const raceEnabled = true
