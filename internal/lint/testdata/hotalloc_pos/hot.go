// Package hot is a hotalloc positive fixture: every annotated function
// contains exactly one flagged allocating construct.
package hot

import (
	"fmt"
	"sync"
)

// Buf is a reused staging buffer.
type Buf struct {
	data []byte
	n    int
}

// Grow allocates a fresh buffer.
//
//lotec:noalloc
func Grow(b *Buf) {
	b.data = make([]byte, 64)
}

// Fresh grows someone else's slice instead of reusing its own.
//
//lotec:noalloc
func Fresh(b *Buf, p []byte) []byte {
	out := append(p, b.data...)
	return out
}

// Close returns a closure capturing b.
//
//lotec:noalloc
func Close(b *Buf) func() {
	return func() { b.n = 0 }
}

// Describe formats on the hot path.
//
//lotec:noalloc
func Describe(b *Buf) string {
	return fmt.Sprintf("buf[%d]", b.n)
}

// Bytes copies the string into a fresh slice.
//
//lotec:noalloc
func Bytes(s string) []byte {
	return []byte(s)
}

// Pair heap-allocates a new Buf.
//
//lotec:noalloc
func Pair(b *Buf) *Buf {
	return &Buf{n: b.n}
}

// Helper calls into unannotated code.
//
//lotec:noalloc
func Helper(b *Buf) {
	unannotated(b)
}

func unannotated(b *Buf) { b.n++ }

// Box stores a concrete int in an interface.
//
//lotec:noalloc
func Box(v int) any {
	return v
}

var pool sync.Pool

// Put pools a buffer through the address of a local: b moves to the heap.
//
//lotec:noalloc
func Put(buf []byte) {
	b := buf[:cap(buf)]
	pool.Put(&b)
}
