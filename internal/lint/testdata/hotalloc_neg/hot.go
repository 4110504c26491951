// Package hot is a hotalloc negative fixture: the admitted patterns —
// amortized self-append, allowlisted stdlib, cold error/panic branches,
// and one justified pool-miss allocation.
package hot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// W is a reused wire buffer.
type W struct {
	mu  sync.Mutex
	buf []byte
	ids []uint32
}

// U32 appends through the allowlisted binary package into the reused
// buffer.
//
//lotec:noalloc
func (w *W) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Push is the amortized self-append form.
//
//lotec:noalloc
func (w *W) Push(v uint32) {
	w.ids = append(w.ids, v)
}

// Compact removes element i in place; slicing the same backing array.
//
//lotec:noalloc
func (w *W) Compact(i int) {
	w.ids = append(w.ids[:i], w.ids[i+1:]...)
}

// Checked allocates only on the cold error branch.
//
//lotec:noalloc
func (w *W) Checked(n int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n > cap(w.buf) {
		return fmt.Errorf("short buffer: %d > %d", n, cap(w.buf))
	}
	w.buf = w.buf[:n]
	return nil
}

// Reset truncates in place.
//
//lotec:noalloc
func (w *W) Reset() {
	w.buf = w.buf[:0]
	for i := range w.ids {
		w.ids[i] = 0
	}
	w.ids = w.ids[:0]
}

// Misses panics on the cold path and computes with builtins on the hot
// one.
//
//lotec:noalloc
func (w *W) Misses() int {
	if len(w.ids) == 0 {
		panic("empty")
	}
	return cap(w.buf) - len(w.buf)
}

// Get serves from the pool; the miss path's fresh slice is a documented
// residual allocation.
//
//lotec:noalloc
func Get(pool *sync.Pool, size int) []byte {
	if b, ok := pool.Get().([]byte); ok && cap(b) >= size {
		return b[:size]
	}
	return make([]byte, size) //lotec:alloc-ok — pool miss hands out a fresh buffer
}

// boxes recycles the *[]byte boxes Put stores buffers in.
var boxes, bufs sync.Pool

// Put pools a buffer in a recycled box: the box is a pointer already, so
// nothing escapes.
//
//lotec:noalloc
func Put(buf []byte) {
	bp := boxes.Get().(*[]byte)
	*bp = buf[:cap(buf)]
	bufs.Put(bp)
}

// shared is a package-level variable: its address is static.
var shared W

// PutShared hands the pool a package variable's address, which allocates
// nothing.
//
//lotec:noalloc
func PutShared() {
	bufs.Put(&shared)
}

var errShort = errors.New("short")

// Check returns a preallocated sentinel on failure.
//
//lotec:noalloc
func Check(ok bool) error {
	if !ok {
		return errShort
	}
	return nil
}
