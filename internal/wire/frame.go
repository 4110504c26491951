package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Data-plane buffer pooling: pooled encode/read frames with transport
// headroom, and deep-copy retention for view-decoded messages.
//
// Ownership rules (DESIGN.md "Data plane" has the full contract):
//
//   - EncodeFrame hands out a pooled frame; the caller owns it until the
//     transport write completes, then returns it with ReleaseFrame. A frame
//     handed to anything with an unbounded lifetime (a delayed or duplicated
//     fault-injected send, a retained reply buffer) must NOT be released —
//     an unreleased frame is a missed reuse, never a correctness issue.
//   - A message produced by DecodeView aliases the frame it was decoded
//     from. The frame may be released only once the message is dead; a
//     consumer that outlives the frame calls Retain first, after which the
//     message owns all of its memory.
//   - ReleaseFrame must get the whole original buffer (as returned by
//     GetFrame/EncodeFrame), never a sub-slice: release restores buf[:cap],
//     so releasing two overlapping slices would corrupt the pool.
//
// In race-enabled builds every released frame is poisoned (each byte set to
// 0xDB) before entering the pool, so a view that outlives its frame reads
// garbage immediately instead of silently-stale bytes.

// FrameHeadroom is the spare byte count GetFrame and EncodeFrame reserve
// ahead of the encoded message — sized for the TCP transport's 4-byte
// length prefix, so framing a message needs no second buffer and no copy.
const FrameHeadroom = 4

// framePool recycles frame buffers across messages. Buffers grow to the
// largest message seen and stay that size; page-carrying frames therefore
// converge on page-sized capacity, which is exactly the steady state the
// transfer paths want.
var framePool = sync.Pool{
	New: func() any {
		buf := make([]byte, 0, 512)
		return &buf
	},
}

// headerPool recycles the *[]byte boxes that carry frames through
// framePool. Putting &local into a sync.Pool heap-allocates a fresh slice
// header per release; cycling the boxes between the two pools (GetFrame
// frees a box, ReleaseFrame reuses it) keeps the steady state at zero
// allocations.
var headerPool = sync.Pool{
	New: func() any { return new([]byte) },
}

// GetFrame returns a pooled buffer of length n. The contents are
// unspecified; callers overwrite every byte they frame.
//
//lotec:noalloc
func GetFrame(n int) []byte {
	bp := framePool.Get().(*[]byte)
	buf := *bp
	*bp = nil
	headerPool.Put(bp)
	if cap(buf) < n {
		return make([]byte, n) //lotec:alloc-ok — pool miss or growth; the bigger buffer joins the pool on release
	}
	return buf[:n]
}

// ReleaseFrame returns a buffer obtained from GetFrame or EncodeFrame to
// the pool. Safe to call with buffers from other sources; never call it
// with a sub-slice of a pooled frame (see the ownership rules above).
//
//lotec:noalloc
func ReleaseFrame(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	b := buf[:cap(buf)]
	if framePoison {
		poisonFrame(b)
	}
	bp := headerPool.Get().(*[]byte)
	*bp = b
	framePool.Put(bp)
}

// MaxFrame bounds a single wire frame; a larger announced length is treated
// as a corrupt stream, not an allocation request.
const MaxFrame = 64 << 20

// ReadFrame reads one length-prefixed message from r into a pooled buffer.
// The returned buffer holds exactly the encoded message (no prefix) and
// must be handed back with ReleaseFrame once every message decoded from it
// is dead or retained.
func ReadFrame(r io.Reader) ([]byte, error) {
	// The length prefix is read into the pooled buffer itself: a stack
	// array would escape through the io.Reader interface call and cost an
	// allocation per frame.
	buf := GetFrame(FrameHeadroom)
	if _, err := io.ReadFull(r, buf); err != nil {
		ReleaseFrame(buf)
		return nil, err
	}
	size := int(binary.LittleEndian.Uint32(buf))
	if size > MaxFrame {
		ReleaseFrame(buf)
		return nil, fmt.Errorf("wire: oversized frame (%d bytes)", size)
	}
	if cap(buf) < size {
		ReleaseFrame(buf)
		buf = GetFrame(size)
	} else {
		buf = buf[:size]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		ReleaseFrame(buf)
		return nil, err
	}
	return buf, nil
}

// EncodeFrame serializes env+m into a pooled, transport-ready frame:
// frame[:FrameHeadroom] holds the little-endian length prefix of the
// message and frame[FrameHeadroom:] is byte-identical to Encode(env, m).
// The transport writes the whole frame in one call and hands it back with
// ReleaseFrame. The envelope's Type field is taken from the message.
func EncodeFrame(env Envelope, m Msg) []byte {
	// A stack writer would escape through the encodeBody interface call, so
	// the frame path draws one from a pool instead.
	w := writerPool.Get().(*writer)
	w.buf = GetFrame(FrameHeadroom + m.Size())[:FrameHeadroom]
	w.u8(uint8(m.Type()))
	w.u64(env.ReqID)
	w.i32(int32(env.From))
	w.i32(int32(env.To))
	w.u32(0) // body length back-patched below
	// Reserved/padding to HeaderSize.
	for len(w.buf) < FrameHeadroom+HeaderSize {
		w.u8(0)
	}
	m.encodeBody(w)
	msgLen := len(w.buf) - FrameHeadroom
	binary.LittleEndian.PutUint32(w.buf[FrameHeadroom+17:], uint32(msgLen-HeaderSize))
	binary.LittleEndian.PutUint32(w.buf[:FrameHeadroom], uint32(msgLen))
	buf := w.buf
	w.buf = nil
	writerPool.Put(w)
	return buf
}

// Retain deep-copies every frame-aliasing field of m in place, so a message
// produced by DecodeView survives the release of its frame. Messages whose
// types carry no []byte payloads are untouched. Idempotent.
func Retain(m Msg) {
	switch t := m.(type) {
	case *MultiFetchResp:
		retainObjPayloads(t.Objs)
	case *MultiPushReq:
		retainObjPayloads(t.Objs)
	case *RunReq:
		t.Arg = cloneBytes(t.Arg)
	case *RunResp:
		t.Result = cloneBytes(t.Result)
	case *ReplicateReq:
		t.Op = cloneBytes(t.Op)
		t.Reply = cloneBytes(t.Reply)
	case *HandoffReq:
		t.State = cloneBytes(t.State)
	}
}

func retainPages(pages []PagePayload) {
	for i := range pages {
		pages[i].Data = cloneBytes(pages[i].Data)
	}
}

func retainObjPayloads(objs []ObjPayload) {
	for i := range objs {
		retainPages(objs[i].Pages)
		for j := range objs[i].Deltas {
			objs[i].Deltas[j].Data = cloneBytes(objs[i].Deltas[j].Data)
		}
	}
}

// cloneBytes copies b into owned memory, preserving nil.
func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
