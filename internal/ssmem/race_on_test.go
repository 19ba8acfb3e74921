//go:build race

package ssmem

// raceEnabled: race-mode instrumentation allocates, so the allocation gates
// only hold without -race; the safety assertions hold always.
const raceEnabled = true
