//go:build unix

package ssmem

import "syscall"

// mapChunk maps size bytes of zeroed, anonymous, private memory outside the
// Go heap.
func mapChunk(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapChunk returns a chunk from mapChunk to the operating system.
func unmapChunk(c []byte) error { return syscall.Munmap(c) }
