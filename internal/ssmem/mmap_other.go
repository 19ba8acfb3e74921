//go:build !unix

package ssmem

// mapChunk falls back to the Go heap where syscall.Mmap does not exist;
// unmapChunk then leaves the chunk to the GC.
func mapChunk(size int) ([]byte, error) { return make([]byte, size), nil }

func unmapChunk([]byte) error { return nil }
