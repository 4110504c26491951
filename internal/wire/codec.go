package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
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

// writer accumulates a little-endian body.
type writer struct {
	buf []byte
}

// writerPool and readerPool recycle codec state across messages: the
// encodeBody/decodeBody interface calls force a stack writer or reader to
// escape, which would otherwise cost one heap allocation per message.
var (
	writerPool = sync.Pool{New: func() any { return new(writer) }}
	readerPool = sync.Pool{New: func() any { return new(reader) }}
)

// u8..qreq append fixed-width fields into the reused buffer; they are the
// wire hot path and must stay allocation-free (amortized growth aside).
//
//lotec:noalloc
func (w *writer) u8(v uint8) { w.buf = append(w.buf, v) }

//lotec:noalloc
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

//lotec:noalloc
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

//lotec:noalloc
func (w *writer) i32(v int32) { w.u32(uint32(v)) }

//lotec:noalloc
func (w *writer) i64(v int64) { w.u64(uint64(v)) }

//lotec:noalloc
func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

//lotec:noalloc
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *writer) str(s string) { w.bytes([]byte(s)) }

//lotec:noalloc
func (w *writer) ref(r ids.TxRef) { w.u64(uint64(r.Tx)); w.i32(int32(r.Node)) }

//lotec:noalloc
func (w *writer) loc(l gdo.PageLoc) { w.i32(int32(l.Node)); w.u64(l.Version) }

//lotec:noalloc
func (w *writer) qreq(q gdo.QueuedReq) { w.ref(q.Ref); w.u8(uint8(q.Mode)) }

// reader consumes a little-endian body, accumulating the first error. In
// view mode (DecodeView) byte-slice fields alias buf instead of copying —
// the decoded message then lives only as long as the frame it came from.
type reader struct {
	buf  []byte
	off  int
	err  error
	view bool
}

// fail is the bounds check on every read; the formatted error is built only
// once, on the first short read.
//
//lotec:noalloc
func (r *reader) fail(n int) bool {
	if r.err != nil {
		return true
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: need %d at %d of %d", ErrShortBuffer, n, r.off, len(r.buf)) //lotec:alloc-ok — first short read poisons the reader
		return true
	}
	return false
}

// u8..qreq read fixed-width fields in place; like their writer duals they
// are annotated allocation-free.
//
//lotec:noalloc
func (r *reader) u8() uint8 {
	if r.fail(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

//lotec:noalloc
func (r *reader) u32() uint32 {
	if r.fail(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

//lotec:noalloc
func (r *reader) u64() uint64 {
	if r.fail(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

//lotec:noalloc
func (r *reader) i32() int32 { return int32(r.u32()) }

//lotec:noalloc
func (r *reader) i64() int64 { return int64(r.u64()) }

//lotec:noalloc
func (r *reader) boolean() bool { return r.u8() != 0 }

//lotec:noalloc
func (r *reader) ref() ids.TxRef { return ids.TxRef{Tx: ids.TxID(r.u64()), Node: ids.NodeID(r.i32())} }

//lotec:noalloc
func (r *reader) loc() gdo.PageLoc {
	return gdo.PageLoc{Node: ids.NodeID(r.i32()), Version: r.u64()}
}

//lotec:noalloc
func (r *reader) qreq() gdo.QueuedReq {
	return gdo.QueuedReq{Ref: r.ref(), Mode: o2pl.Mode(r.u8())}
}

// bytes reads a length-prefixed byte field. In view mode the result aliases
// the frame (capped capacity, so an append by the consumer cannot scribble
// over adjacent fields); otherwise it is a fresh copy.
func (r *reader) bytes() []byte {
	n := int(r.u32())
	if n == 0 || r.fail(n) {
		return nil
	}
	if r.view {
		out := r.buf[r.off : r.off+n : r.off+n]
		r.off += n
		return out
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

func (r *reader) str() string { return string(r.bytes()) }

// count reads a collection length with a sanity bound.
//
//lotec:noalloc
func (r *reader) count() int {
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > 1<<24) {
		r.err = fmt.Errorf("wire: absurd collection length %d", n) //lotec:alloc-ok — malformed frame poisons the reader
		return 0
	}
	return n
}

// sectionFlag marks an optional trailing section in a collection count's
// high bit. Counts are sanity-bounded far below 2³¹, so the bit is free;
// using it keeps flag-less messages byte-identical to the pre-delta format.
const sectionFlag = 1 << 31

// flaggedCount reads a collection length whose bit 31 is an optional-section
// presence flag.
//
//lotec:noalloc
func (r *reader) flaggedCount() (int, bool) {
	v := r.u32()
	flag := v&sectionFlag != 0
	n := int(v &^ sectionFlag)
	if r.err == nil && n > 1<<24 {
		r.err = fmt.Errorf("wire: absurd collection length %d", n) //lotec:alloc-ok — malformed frame poisons the reader
		return 0, false
	}
	return n, flag
}

// Encode serializes env+m into a fresh buffer. The envelope's Type field is
// taken from the message, not from env.
func Encode(env Envelope, m Msg) []byte {
	var w writer
	w.buf = make([]byte, 0, m.Size())
	w.u8(uint8(m.Type()))
	w.u64(env.ReqID)
	w.i32(int32(env.From))
	w.i32(int32(env.To))
	w.u32(0) // body length back-patched below
	// Reserved/padding to HeaderSize.
	for len(w.buf) < HeaderSize {
		w.u8(0)
	}
	m.encodeBody(&w)
	binary.LittleEndian.PutUint32(w.buf[17:], uint32(len(w.buf)-HeaderSize))
	return w.buf
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
	r := readerPool.Get().(*reader)
	*r = reader{buf: buf[HeaderSize : HeaderSize+bodyLen], view: view}
	m.decodeBody(r)
	rerr, off, n := r.err, r.off, len(r.buf)
	*r = reader{}
	readerPool.Put(r)
	if rerr != nil {
		return env, nil, fmt.Errorf("decode %d: %w", env.Type, rerr)
	}
	if off != n {
		return env, nil, fmt.Errorf("%w: %d of %d consumed", ErrTrailing, off, n)
	}
	return env, m, nil
}

// adoptFlag is AcquireReq.Adopt's bit in the mode byte; lock modes are 1
// and 2.
const adoptFlag = 0x80

// Body encoders/decoders. Each pair must mirror the other exactly; the test
// suite round-trips every type and cross-checks Size.

// The lock-protocol bodies (acquire/release/grant/abort) ride the
// per-transaction fast path and are annotated allocation-free end to end;
// the page-transfer bodies carry payload slices and are not.
//
//lotec:noalloc
func (m *AcquireReq) encodeBody(w *writer) {
	w.u64(m.ReqID)
	w.i64(int64(m.Obj))
	w.ref(m.Ref)
	w.u64(uint64(m.Family))
	w.u64(m.Age)
	w.i32(int32(m.Site))
	mode := uint8(m.Mode)
	if m.Adopt {
		mode |= adoptFlag
	}
	w.u8(mode)
	w.i32(m.Shard)
	if m.Epoch != 0 {
		w.u64(m.Epoch)
	}
}

//lotec:noalloc
func (m *AcquireReq) decodeBody(r *reader) {
	m.ReqID = r.u64()
	m.Obj = ids.ObjectID(r.i64())
	m.Ref = r.ref()
	m.Family = ids.FamilyID(r.u64())
	m.Age = r.u64()
	m.Site = ids.NodeID(r.i32())
	mode := r.u8()
	m.Mode, m.Adopt = o2pl.Mode(mode&^adoptFlag), mode&adoptFlag != 0
	m.Shard = r.i32()
	// Trailing optional epoch section: present iff body bytes remain.
	if r.err == nil && r.off < len(r.buf) {
		m.Epoch = r.u64()
	}
}

//lotec:noalloc
func (m *AcquireResp) encodeBody(w *writer) {
	w.i64(int64(m.Obj))
	w.u8(uint8(m.Status))
	w.u8(uint8(m.Mode))
	w.i32(m.NumPages)
	w.i32(int32(m.LastWriter))
	w.i32(m.Shard)
	w.u32(uint32(len(m.PageMap)))
	for _, l := range m.PageMap {
		w.loc(l)
	}
}

//lotec:noalloc
func (m *AcquireResp) decodeBody(r *reader) {
	m.Obj = ids.ObjectID(r.i64())
	m.Status = gdo.AcquireStatus(r.u8())
	m.Mode = o2pl.Mode(r.u8())
	m.NumPages = r.i32()
	m.LastWriter = ids.NodeID(r.i32())
	m.Shard = r.i32()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.PageMap = append(m.PageMap, r.loc())
	}
}

//lotec:noalloc
func (m *ReleaseReq) encodeBody(w *writer) {
	w.u64(m.ReqID)
	w.u64(uint64(m.Family))
	w.i32(int32(m.Site))
	w.boolean(m.Commit)
	w.i32(m.Shard)
	w.u32(uint32(len(m.Rels)))
	for _, rel := range m.Rels {
		w.i64(int64(rel.Obj))
		w.u32(uint32(len(rel.Dirty)))
		for _, p := range rel.Dirty {
			w.i32(int32(p))
		}
	}
	if m.Epoch != 0 {
		w.u64(m.Epoch)
	}
}

//lotec:noalloc
func (m *ReleaseReq) decodeBody(r *reader) {
	m.ReqID = r.u64()
	m.Family = ids.FamilyID(r.u64())
	m.Site = ids.NodeID(r.i32())
	m.Commit = r.boolean()
	m.Shard = r.i32()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		rel := gdo.ObjectRelease{Obj: ids.ObjectID(r.i64())}
		k := r.count()
		for j := 0; j < k && r.err == nil; j++ {
			rel.Dirty = append(rel.Dirty, ids.PageNum(r.i32()))
		}
		m.Rels = append(m.Rels, rel)
	}
	// Trailing optional epoch section: present iff body bytes remain.
	if r.err == nil && r.off < len(r.buf) {
		m.Epoch = r.u64()
	}
}

//lotec:noalloc
func (m *ReleaseResp) encodeBody(w *writer) {
	w.i32(m.Shard)
	w.u32(uint32(len(m.Stamps)))
	for _, s := range m.Stamps {
		w.i64(int64(s.Obj))
		w.i32(int32(s.Page))
		w.u64(s.Version)
	}
	if len(m.Kept) > 0 {
		w.u32(uint32(len(m.Kept)))
		for _, o := range m.Kept {
			w.i64(int64(o))
		}
	}
}

//lotec:noalloc
func (m *ReleaseResp) decodeBody(r *reader) {
	m.Shard = r.i32()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Stamps = append(m.Stamps, gdo.PageStamp{
			Obj:     ids.ObjectID(r.i64()),
			Page:    ids.PageNum(r.i32()),
			Version: r.u64(),
		})
	}
	// Trailing optional kept section: present iff body bytes remain.
	if r.err == nil && r.off < len(r.buf) {
		n = r.count()
		if n == 0 && r.err == nil {
			r.err = fmt.Errorf("wire: empty kept section") //lotec:alloc-ok — malformed frame poisons the reader
		}
		for i := 0; i < n && r.err == nil; i++ {
			m.Kept = append(m.Kept, ids.ObjectID(r.i64()))
		}
	}
}

//lotec:noalloc
func (m *Grant) encodeBody(w *writer) {
	w.i64(int64(m.Obj))
	w.u64(uint64(m.Family))
	w.u8(uint8(m.Mode))
	w.boolean(m.Upgrade)
	w.i32(m.NumPages)
	w.i32(int32(m.LastWriter))
	w.i32(m.Shard)
	w.u32(uint32(len(m.Reqs)))
	for _, q := range m.Reqs {
		w.qreq(q)
	}
	w.u32(uint32(len(m.PageMap)))
	for _, l := range m.PageMap {
		w.loc(l)
	}
}

//lotec:noalloc
func (m *Grant) decodeBody(r *reader) {
	m.Obj = ids.ObjectID(r.i64())
	m.Family = ids.FamilyID(r.u64())
	m.Mode = o2pl.Mode(r.u8())
	m.Upgrade = r.boolean()
	m.NumPages = r.i32()
	m.LastWriter = ids.NodeID(r.i32())
	m.Shard = r.i32()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Reqs = append(m.Reqs, r.qreq())
	}
	n = r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.PageMap = append(m.PageMap, r.loc())
	}
}

//lotec:noalloc
func (m *Abort) encodeBody(w *writer) {
	w.i64(int64(m.Obj))
	w.u64(uint64(m.Family))
	w.i32(m.Shard)
	w.u32(uint32(len(m.Reqs)))
	for _, q := range m.Reqs {
		w.qreq(q)
	}
}

//lotec:noalloc
func (m *Abort) decodeBody(r *reader) {
	m.Obj = ids.ObjectID(r.i64())
	m.Family = ids.FamilyID(r.u64())
	m.Shard = r.i32()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Reqs = append(m.Reqs, r.qreq())
	}
}

//lotec:noalloc
func (m *Recall) encodeBody(w *writer) {
	w.i64(int64(m.Obj))
	w.u64(uint64(m.Family))
	w.i32(m.Shard)
}

//lotec:noalloc
func (m *Recall) decodeBody(r *reader) {
	m.Obj = ids.ObjectID(r.i64())
	m.Family = ids.FamilyID(r.u64())
	m.Shard = r.i32()
}

// encodePagesFlagged writes the page list, optionally raising the
// delta-section presence flag on the count.
func encodePagesFlagged(w *writer, pages []PagePayload, flag bool) {
	cnt := uint32(len(pages))
	if flag {
		cnt |= sectionFlag
	}
	w.u32(cnt)
	for _, p := range pages {
		w.i32(int32(p.Page))
		w.u64(p.Version)
		w.bytes(p.Data)
	}
}

func decodePagesFlagged(r *reader) ([]PagePayload, bool) {
	n, flag := r.flaggedCount()
	var out []PagePayload
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, PagePayload{
			Page:    ids.PageNum(r.i32()),
			Version: r.u64(),
			Data:    r.bytes(),
		})
	}
	return out, flag
}

func encodeDelta(w *writer, d DeltaPage) {
	w.i32(int32(d.Page))
	w.u64(d.Base)
	w.u64(d.Version)
	w.u32(uint32(len(d.Runs)))
	for _, s := range d.Runs {
		w.u32(s.Off)
		w.u32(s.Len)
	}
	w.bytes(d.Data)
}

// decodeDelta reads one DeltaPage and validates its shape: version must
// progress, runs must be sorted, non-overlapping, non-empty, and in-bounds,
// and together exactly cover the payload. Anything else is a decode error,
// never a panic — the apply path trusts decoded deltas' shape.
func decodeDelta(r *reader) DeltaPage {
	d := DeltaPage{Page: ids.PageNum(r.i32()), Base: r.u64(), Version: r.u64()}
	n := r.count()
	prevEnd := uint64(0)
	sum := 0
	for i := 0; i < n && r.err == nil; i++ {
		s := Span{Off: r.u32(), Len: r.u32()}
		if r.err != nil {
			break
		}
		if s.Len == 0 || uint64(s.Off) < prevEnd || uint64(s.Off)+uint64(s.Len) > 1<<24 {
			r.err = fmt.Errorf("wire: delta run %d [%d,+%d) empty, overlapping, or out of bounds", i, s.Off, s.Len)
			break
		}
		prevEnd = uint64(s.Off) + uint64(s.Len)
		sum += int(s.Len)
		d.Runs = append(d.Runs, s)
	}
	if r.err == nil && d.Base >= d.Version {
		r.err = fmt.Errorf("wire: delta for page %d has a version gap (%d→%d)", d.Page, d.Base, d.Version)
	}
	d.Data = r.bytes()
	if r.err == nil && sum != len(d.Data) {
		r.err = fmt.Errorf("wire: delta runs cover %d bytes, payload has %d", sum, len(d.Data))
	}
	return d
}

func (*PushResp) encodeBody(*writer) {}
func (*PushResp) decodeBody(*reader) {}

func (m *CopySetReq) encodeBody(w *writer) {
	w.u64(m.ReqID)
	w.u32(uint32(len(m.Objs)))
	for _, o := range m.Objs {
		w.i64(int64(o))
	}
}

func (m *CopySetReq) decodeBody(r *reader) {
	m.ReqID = r.u64()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Objs = append(m.Objs, ids.ObjectID(r.i64()))
	}
}

func (m *CopySetResp) encodeBody(w *writer) {
	w.u32(uint32(len(m.Sets)))
	for _, c := range m.Sets {
		w.i64(int64(c.Obj))
		w.u32(uint32(len(c.Sites)))
		for _, s := range c.Sites {
			w.i32(int32(s))
		}
	}
}

func (m *CopySetResp) decodeBody(r *reader) {
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		c := CopySet{Obj: ids.ObjectID(r.i64())}
		k := r.count()
		for j := 0; j < k && r.err == nil; j++ {
			c.Sites = append(c.Sites, ids.NodeID(r.i32()))
		}
		m.Sets = append(m.Sets, c)
	}
}

func (m *RegisterReq) encodeBody(w *writer) {
	w.i64(int64(m.Obj))
	w.i32(int32(m.Class))
	w.i32(m.NumPages)
	w.i32(int32(m.Owner))
}

func (m *RegisterReq) decodeBody(r *reader) {
	m.Obj = ids.ObjectID(r.i64())
	m.Class = ids.ClassID(r.i32())
	m.NumPages = r.i32()
	m.Owner = ids.NodeID(r.i32())
}

func (*RegisterResp) encodeBody(*writer) {}
func (*RegisterResp) decodeBody(*reader) {}

func (m *RunReq) encodeBody(w *writer) {
	w.i64(int64(m.Obj))
	w.str(m.Method)
	w.bytes(m.Arg)
}

func (m *RunReq) decodeBody(r *reader) {
	m.Obj = ids.ObjectID(r.i64())
	m.Method = r.str()
	m.Arg = r.bytes()
}

func (m *RunResp) encodeBody(w *writer) {
	w.bytes(m.Result)
	w.str(m.ErrMsg)
}

func (m *RunResp) decodeBody(r *reader) {
	m.Result = r.bytes()
	m.ErrMsg = r.str()
}

func (m *ErrResp) encodeBody(w *writer) { w.str(m.Msg) }
func (m *ErrResp) decodeBody(r *reader) { m.Msg = r.str() }

func (m *MultiFetchReq) encodeBody(w *writer) {
	w.u64(m.ReqID)
	w.boolean(m.Demand)
	w.u32(uint32(len(m.Objs)))
	for _, o := range m.Objs {
		w.i64(int64(o.Obj))
		cnt := uint32(len(o.Pages))
		if o.hasBases() {
			cnt |= sectionFlag
		}
		w.u32(cnt)
		for _, p := range o.Pages {
			w.i32(int32(p))
		}
		if o.hasBases() {
			for _, b := range o.Bases {
				w.u64(b)
			}
		}
	}
}

func (m *MultiFetchReq) decodeBody(r *reader) {
	m.ReqID = r.u64()
	m.Demand = r.boolean()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		o := ObjPages{Obj: ids.ObjectID(r.i64())}
		k, withBases := r.flaggedCount()
		if withBases && k == 0 && r.err == nil {
			r.err = fmt.Errorf("wire: base-version section on an empty page list")
		}
		for j := 0; j < k && r.err == nil; j++ {
			o.Pages = append(o.Pages, ids.PageNum(r.i32()))
		}
		if withBases {
			for j := 0; j < k && r.err == nil; j++ {
				o.Bases = append(o.Bases, r.u64())
			}
		}
		m.Objs = append(m.Objs, o)
	}
}

func encodeObjPayloads(w *writer, objs []ObjPayload) {
	w.u32(uint32(len(objs)))
	for _, o := range objs {
		w.i64(int64(o.Obj))
		encodePagesFlagged(w, o.Pages, len(o.Deltas) > 0)
		if len(o.Deltas) > 0 {
			w.u32(uint32(len(o.Deltas)))
			for _, d := range o.Deltas {
				encodeDelta(w, d)
			}
		}
	}
}

func decodeObjPayloads(r *reader) []ObjPayload {
	n := r.count()
	var out []ObjPayload
	for i := 0; i < n && r.err == nil; i++ {
		o := ObjPayload{Obj: ids.ObjectID(r.i64())}
		var withDeltas bool
		o.Pages, withDeltas = decodePagesFlagged(r)
		if withDeltas {
			k := r.count()
			if k == 0 && r.err == nil {
				r.err = fmt.Errorf("wire: delta flag set on an empty delta section")
			}
			for j := 0; j < k && r.err == nil; j++ {
				o.Deltas = append(o.Deltas, decodeDelta(r))
			}
		}
		out = append(out, o)
	}
	return out
}

func (m *MultiFetchResp) encodeBody(w *writer) { encodeObjPayloads(w, m.Objs) }
func (m *MultiFetchResp) decodeBody(r *reader) { m.Objs = decodeObjPayloads(r) }

func (m *MultiPushReq) encodeBody(w *writer) {
	w.u64(m.ReqID)
	encodeObjPayloads(w, m.Objs)
}

func (m *MultiPushReq) decodeBody(r *reader) {
	m.ReqID = r.u64()
	m.Objs = decodeObjPayloads(r)
}
