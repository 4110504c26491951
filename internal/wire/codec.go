package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"lotec/internal/gdo"
	"lotec/internal/ids"
)

// Envelope is the fixed 32-byte message header.
type Envelope struct {
	Type  MsgType
	ReqID uint64
	From  ids.NodeID
	To    ids.NodeID
}

// Codec errors.
var (
	ErrShortBuffer = errors.New("wire: short buffer")
	ErrTrailing    = errors.New("wire: trailing bytes after body")
)

// coder walks a message's layout method, the one description of its body
// bytes, either encoding or decoding. An encoding walk only reads the
// message, so a message may be encoded by several goroutines at once; it
// counts every field in n and writes the fields that fit buf's spare
// capacity, never growing buf. Sizing is therefore an encoding walk with no
// buffer — the zero coder — and an encoding is complete iff it wrote all n
// bytes. A decoding walk fills a fresh message, checks every read against
// the body's end and records the first malformation in err, after which
// every field operation is a no-op.
type coder struct {
	decoding bool
	n        int    // encoding: the body bytes walked so far
	buf      []byte // encoding: the buffer written into; decoding: the body read
	off      int    // decoding: read offset into buf
	err      error  // decoding: the first malformation
	// need is the byte count of a read that ran past the body's end. Such a
	// read records the bare ErrShortBuffer, and decode formats the detail
	// once: the field operations stay small enough to inline.
	need int
	// view (DecodeView) makes decoded byte fields alias buf instead of
	// copying it: the message then lives only as long as the frame.
	view bool
}

// coders recycles coder state across messages: a layout is reached through
// the Msg interface, so a stack coder would escape and cost one heap
// allocation per message.
var coders = sync.Pool{New: func() any { return new(coder) }}

// getCoder returns a zero coder: an encoding walk with no buffer, which
// sizes.
func getCoder() *coder { return coders.Get().(*coder) }

// putCoder returns c to the pool zeroed, so the pool keeps no frame alive.
func putCoder(c *coder) {
	*c = coder{}
	coders.Put(c)
}

// fits is the bounds check on every decoded read: it reports whether the
// walk has not failed and n more bytes remain, recording a short read when
// they do not.
func (c *coder) fits(n int) bool {
	if c.err == nil && c.off+n > len(c.buf) {
		c.err, c.need = ErrShortBuffer, n
	}
	return c.err == nil
}

// take consumes the next n bytes of a decoded body and returns them (nil
// on a short read), with capacity capped so an append by a consumer
// aliasing them cannot scribble over the fields that follow.
func (c *coder) take(n int) []byte {
	if !c.fits(n) {
		return nil
	}
	b := c.buf[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// fault records a malformation found while decoding; it is a no-op when
// encoding and once the walk has failed.
func (c *coder) fault(err error) {
	if c.decoding && c.err == nil {
		c.err = err
	}
}

// u8, u32 and u64 walk one fixed-width little-endian integer of any type
// whose values fit the width: IDs, modes and counts.
func u8[T ~uint8 | ~int](c *coder, v *T) {
	if c.decoding {
		if c.fits(1) {
			*v = T(c.buf[c.off])
			c.off++
		}
		return
	}
	c.n++
	if len(c.buf) < cap(c.buf) {
		c.buf = append(c.buf, uint8(*v))
	}
}

func u32[T ~uint32 | ~int32](c *coder, v *T) {
	if c.decoding {
		if c.fits(4) {
			*v = T(binary.LittleEndian.Uint32(c.buf[c.off:]))
			c.off += 4
		}
		return
	}
	c.n += 4
	if len(c.buf)+4 <= cap(c.buf) {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	}
}

func u64[T ~uint64 | ~int64](c *coder, v *T) {
	if c.decoding {
		if c.fits(8) {
			*v = T(binary.LittleEndian.Uint64(c.buf[c.off:]))
			c.off += 8
		}
		return
	}
	c.n += 8
	if len(c.buf)+8 <= cap(c.buf) {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	}
}

func (c *coder) boolean(v *bool) {
	b := uint8(0)
	if *v {
		b = 1
	}
	u8(c, &b)
	if c.decoding {
		*v = b != 0
	}
}

func txRef(c *coder, r *ids.TxRef) {
	u64(c, &r.Tx)
	u32(c, &r.Node)
}

func pageLoc(c *coder, l *gdo.PageLoc) {
	u32(c, &l.Node)
	u64(c, &l.Version)
}

func queuedReq(c *coder, q *gdo.QueuedReq) {
	txRef(c, &q.Ref)
	u8(c, &q.Mode)
}

// payload walks a length-prefixed byte or string field: encoding, it writes
// b whole or not at all, and decoding, it returns the field's bytes in the
// frame (nil when empty).
func payload[B ~[]byte | ~string](c *coder, b B) []byte {
	n := uint32(len(b))
	u32(c, &n)
	if c.decoding {
		if n == 0 {
			return nil
		}
		return c.take(int(n))
	}
	c.n += len(b)
	if len(c.buf)+len(b) <= cap(c.buf) {
		c.buf = append(c.buf, b...)
	}
	return nil
}

// bytes walks a byte field; a decoded one aliases the frame in view mode
// and is a fresh copy otherwise.
func (c *coder) bytes(b *[]byte) {
	switch v := payload(c, *b); {
	case v == nil:
	case c.view:
		*b = v
	default:
		*b = append([]byte(nil), v...) // a copying decode owns its payloads
	}
}

// str walks a string field; a decoded string is always a copy.
func (c *coder) str(s *string) {
	if v := payload(c, *s); v != nil {
		*s = string(v)
	}
}

// length walks a collection length, which a decoded frame may not claim
// above limit.
func (c *coder) length(n, limit int, what string) int {
	v := uint32(n)
	u32(c, &v)
	return c.bounded(int(v), limit, what)
}

func (c *coder) bounded(n, limit int, what string) int {
	if c.decoding && c.err == nil && n > limit {
		c.err = fmt.Errorf("wire: absurd %s %d", what, n) // malformed frame poisons the walk
		return 0
	}
	return n
}

// maxCount bounds every collection count a frame may claim.
const maxCount = 1 << 24

// sectionFlag marks an optional trailing section in a collection count's
// high bit. Counts are sanity-bounded far below 2³¹, so the bit is free;
// using it keeps flag-less messages byte-identical to the pre-delta format.
const sectionFlag = 1 << 31

// flagged walks a collection length whose bit 31 flags an optional section,
// returning the length and the flag.
func (c *coder) flagged(n int, flag bool) (int, bool) {
	v := uint32(n)
	if flag {
		v |= sectionFlag
	}
	u32(c, &v)
	return c.bounded(int(v&^sectionFlag), maxCount, "collection length"), v&sectionFlag != 0
}

// trailing walks the presence of an optional trailing section, which an
// encoder writes only when present is true; a decoder finds it iff body
// bytes remain.
func (c *coder) trailing(present bool) bool {
	if c.decoding {
		return c.err == nil && c.off < len(c.buf)
	}
	return present
}

// list walks a counted collection, each element through el.
func list[T any](c *coder, s *[]T, el func(*coder, *T)) {
	items(c, s, c.length(len(*s), maxCount, "collection length"), el)
}

// items walks n elements of *s through el, appending each first when
// decoding.
func items[T any](c *coder, s *[]T, n int, el func(*coder, *T)) {
	for i := 0; i < n && c.err == nil; i++ {
		el(c, elem(c, s, i))
	}
}

// elem returns element i of *s, appending it first when decoding.
func elem[T any](c *coder, s *[]T, i int) *T {
	if c.decoding {
		var zero T
		*s = append(*s, zero)
	}
	return &(*s)[i]
}

// section returns the on-wire size of one element of a message.
func section[T any](c *coder, v *T, el func(*coder, *T)) int {
	*c = coder{}
	el(c, v)
	return c.n
}

// size returns m's full on-wire size in bytes, HeaderSize included.
func (c *coder) size(m Msg) int {
	*c = coder{}
	m.layout(c)
	return HeaderSize + c.n
}

// encode appends env and m to buf, the envelope's Type taken from m, and
// reports whether they fit buf's capacity; either way c.n is then the size
// of m's body.
func (c *coder) encode(buf []byte, env Envelope, m Msg) ([]byte, bool) {
	start := len(buf)
	buf = append(buf, make([]byte, HeaderSize)...)
	h := buf[start:]
	h[0] = uint8(m.Type())
	binary.LittleEndian.PutUint64(h[1:], env.ReqID)
	binary.LittleEndian.PutUint32(h[9:], uint32(env.From))
	binary.LittleEndian.PutUint32(h[13:], uint32(env.To))
	*c = coder{buf: buf}
	m.layout(c)
	buf = c.buf
	binary.LittleEndian.PutUint32(buf[start+17:], uint32(c.n))
	return buf, len(buf)-start-HeaderSize == c.n
}

// Size returns m's full on-wire size in bytes (HeaderSize + body): what the
// simulation's cost model prices and Encode produces.
func Size(m Msg) int {
	c := getCoder()
	n := c.size(m)
	putCoder(c)
	return n
}

// Encode serializes env+m into a fresh buffer. The envelope's Type field is
// taken from the message, not from env.
func Encode(env Envelope, m Msg) []byte {
	c := getCoder()
	buf, _ := c.encode(make([]byte, 0, c.size(m)), env, m)
	putCoder(c)
	return buf
}

// Decode parses a full message buffer produced by Encode. The returned
// message owns all of its memory.
func Decode(buf []byte) (Envelope, Msg, error) {
	return decode(buf, false)
}

// DecodeView parses like Decode, but the returned message's byte-slice
// payload fields (page data, delta data, run arguments/results) alias buf
// instead of copying. The message is valid only while buf is — callers that
// outlive the frame must wire.Retain the message before releasing it.
// String fields are always owned (the string conversion copies).
func DecodeView(buf []byte) (Envelope, Msg, error) {
	return decode(buf, true)
}

func decode(buf []byte, view bool) (Envelope, Msg, error) {
	if len(buf) < HeaderSize {
		return Envelope{}, nil, fmt.Errorf("%w: header", ErrShortBuffer)
	}
	env := Envelope{
		Type:  MsgType(buf[0]),
		ReqID: binary.LittleEndian.Uint64(buf[1:]),
		From:  ids.NodeID(int32(binary.LittleEndian.Uint32(buf[9:]))),
		To:    ids.NodeID(int32(binary.LittleEndian.Uint32(buf[13:]))),
	}
	bodyLen := int(binary.LittleEndian.Uint32(buf[17:]))
	if HeaderSize+bodyLen > len(buf) {
		return env, nil, fmt.Errorf("%w: body wants %d, have %d", ErrShortBuffer, bodyLen, len(buf)-HeaderSize)
	}
	m, err := newMsg(env.Type)
	if err != nil {
		return env, nil, err
	}
	c := getCoder()
	*c = coder{decoding: true, buf: buf[HeaderSize : HeaderSize+bodyLen], view: view}
	m.layout(c)
	cerr, off := c.err, c.off
	if cerr == ErrShortBuffer {
		cerr = fmt.Errorf("%w: need %d at %d of %d", ErrShortBuffer, c.need, off, bodyLen)
	}
	putCoder(c)
	if cerr != nil {
		return env, nil, fmt.Errorf("decode %d: %w", env.Type, cerr)
	}
	if off != bodyLen {
		return env, nil, fmt.Errorf("%w: %d of %d consumed", ErrTrailing, off, bodyLen)
	}
	return env, m, nil
}

// Element walkers of the message layouts.

func objRelease(c *coder, r *gdo.ObjectRelease) {
	u64(c, &r.Obj)
	list(c, &r.Dirty, u32[ids.PageNum])
}

func pageStamp(c *coder, s *gdo.PageStamp) {
	u64(c, &s.Obj)
	u32(c, &s.Page)
	u64(c, &s.Version)
}

func copySet(c *coder, s *CopySet) {
	u64(c, &s.Obj)
	list(c, &s.Sites, u32[ids.NodeID])
}

func objPages(c *coder, o *ObjPages) {
	u64(c, &o.Obj)
	n, withBases := c.flagged(len(o.Pages), o.hasBases())
	if withBases && n == 0 {
		c.fault(errEmptyBases)
	}
	items(c, &o.Pages, n, u32[ids.PageNum])
	if withBases {
		items(c, &o.Bases, n, u64[uint64])
	}
}

func objPayload(c *coder, o *ObjPayload) {
	u64(c, &o.Obj)
	n, withDeltas := c.flagged(len(o.Pages), len(o.Deltas) > 0)
	items(c, &o.Pages, n, pagePayload)
	if withDeltas {
		list(c, &o.Deltas, deltaPage)
		if len(o.Deltas) == 0 {
			c.fault(errEmptyDeltas)
		}
	}
}

func pagePayload(c *coder, p *PagePayload) {
	u32(c, &p.Page)
	u64(c, &p.Version)
	c.bytes(&p.Data)
}

// deltaPage walks one DeltaPage; a decoded one must have the shape the
// apply path trusts (see shapeErr).
func deltaPage(c *coder, d *DeltaPage) {
	u32(c, &d.Page)
	u64(c, &d.Base)
	u64(c, &d.Version)
	// The runs are walked here, not through list: its call through a
	// function value would move EncodedSize's coder to the heap.
	n := c.length(len(d.Runs), maxCount, "collection length")
	for i := 0; i < n && c.err == nil; i++ {
		s := elem(c, &d.Runs, i)
		u32(c, &s.Off)
		u32(c, &s.Len)
	}
	c.bytes(&d.Data)
	if c.decoding && c.err == nil {
		c.err = d.shapeErr()
	}
}

// shapeErr reports a malformed delta: version must progress, runs must be
// sorted, non-overlapping, non-empty, and in-bounds, and together exactly
// cover the payload. The decoder rejects anything else, never panics — the
// apply path trusts decoded deltas' shape.
func (d *DeltaPage) shapeErr() error {
	prevEnd, sum := uint64(0), 0
	for i, s := range d.Runs {
		if s.Len == 0 || uint64(s.Off) < prevEnd || uint64(s.Off)+uint64(s.Len) > 1<<24 {
			return fmt.Errorf("wire: delta run %d [%d,+%d) empty, overlapping, or out of bounds", i, s.Off, s.Len)
		}
		prevEnd = uint64(s.Off) + uint64(s.Len)
		sum += int(s.Len)
	}
	if d.Base >= d.Version {
		return fmt.Errorf("wire: delta for page %d has a version gap (%d→%d)", d.Page, d.Base, d.Version)
	}
	if sum != len(d.Data) {
		return fmt.Errorf("wire: delta runs cover %d bytes, payload has %d", sum, len(d.Data))
	}
	return nil
}

// Decode faults with no detail to format.
var (
	errEmptyKept   = errors.New("wire: empty kept section")
	errEmptyBases  = errors.New("wire: base-version section on an empty page list")
	errEmptyDeltas = errors.New("wire: delta flag set on an empty delta section")
)
