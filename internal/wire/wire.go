// Package wire defines the messages the LOTEC protocols exchange and a
// compact binary codec for them.
//
// Every message type has one layout method that walks its fields in wire
// order; Size, Encode, Decode and Classify's per-object sections all come
// from that walk. Size — the bytes a message occupies on the wire, envelope
// included — is what the simulation's cost accounting and the paper's byte
// counts (Figures 2–5) are computed from, so it is by construction the
// encoded length.
package wire

import (
	"errors"
	"fmt"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// MsgType discriminates message bodies.
type MsgType uint8

// Message types.
const (
	TAcquireReq MsgType = iota + 1
	TAcquireResp
	TReleaseReq
	TReleaseResp
	TGrant
	TAbort
	_ // 7–9 were the single-object FetchReq, FetchResp and PushReq, retired
	_ // for their Multi* forms; the numbers are not reused so that a frame
	_ // from an old peer fails to decode instead of decoding as something else
	TPushResp
	TCopySetReq
	TCopySetResp
	TRegisterReq
	_ // 14 was RegisterResp: registration is one-way; the number is not reused
	TRunReq
	TRunResp
	TErrResp
	TMultiFetchReq
	TMultiFetchResp
	TMultiPushReq
	TReplicateReq
	TReplicateResp
	TPromoteReq
	TPromoteResp
	TEpochChangeReq
	TEpochChangeResp
	THandoffStartReq
	THandoffStartResp
	THandoffReq
	THandoffResp
	TRouteResp
	TWaitEdgeUpdate
	TWaitEdgeResp
	TAbortFamilyReq
	TAbortFamilyResp
	TRecall
)

// HeaderSize is the envelope size: type(1) + reqID(8) + from(4) + to(4) +
// bodyLen(4) + flags/padding(11) = 32 bytes, a realistic header for a
// lightweight reliable messaging layer.
const HeaderSize = 32

// Msg is implemented by every message body.
type Msg interface {
	Type() MsgType
	// layout walks the body's fields in wire order through c, which sizes,
	// encodes or decodes them.
	layout(c *coder)
}

// Idempotent is implemented by the request bodies the retry layer may
// transmit more than once: AcquireReq, ReleaseReq, CopySetReq,
// MultiFetchReq and MultiPushReq. The request ID travels in the body (the
// envelope's ReqID is a per-transmission correlation number on TCP, so it
// changes across retries; the body's ID is stable) and keys the receiver's
// idempotency cache — a duplicate replays the cached reply instead of
// re-executing. ID 0 means "never stamped": the zero-fault path leaves it
// 0 and the dedup layer passes such messages straight through.
type Idempotent interface {
	Msg
	RequestID() uint64
	SetRequestID(uint64)
}

// PagePayload carries one page's bytes and version.
type PagePayload struct {
	Page    ids.PageNum
	Version uint64
	Data    []byte
}

// EncodedSize is the payload's on-wire section size; the serving side uses
// it to decide whether a delta actually beats the full page it replaces.
func (p PagePayload) EncodedSize() int {
	var c coder
	pagePayload(&c, &p)
	return c.n
}

// Span is one byte range [Off, Off+Len) within a delta-encoded page.
type Span struct {
	Off uint32
	Len uint32
}

// DeltaPage carries one page's changed byte ranges between two versions: a
// receiver holding exactly version Base patches the runs in place and ends
// up byte-identical to the full page at Version. Runs are sorted and
// non-overlapping; Data is the runs' bytes concatenated in order. The codec
// rejects malformed deltas (overlapping runs, out-of-bounds offsets, version
// gaps, run/payload length mismatch) at decode time.
type DeltaPage struct {
	Page    ids.PageNum
	Base    uint64
	Version uint64
	Runs    []Span
	Data    []byte
}

// EncodedSize is the delta's on-wire section size (runs and framing
// included — a delta only ships when this beats the full page).
func (d DeltaPage) EncodedSize() int {
	var c coder
	deltaPage(&c, &d)
	return c.n
}

// AcquireReq asks the GDO to acquire obj's lock (Alg 4.2 input).
type AcquireReq struct {
	// ReqID is the stable idempotency key stamped by the retry layer
	// (0 when retries are off). See Idempotent.
	ReqID  uint64
	Obj    ids.ObjectID
	Ref    ids.TxRef
	Family ids.FamilyID
	// Age is the family's stable priority for deadlock-victim selection:
	// the root TxID of its *first* attempt, reused across retries so a
	// repeatedly victimized root eventually becomes oldest and wins.
	Age  uint64
	Site ids.NodeID
	Mode o2pl.Mode
	// Adopt asks the directory to first rename the site hold Site retains
	// on Obj (see Recall) to Family, so that the request is one by a family
	// that already holds the lock. Encoded in a spare bit of the mode
	// byte: requests without it stay byte-identical.
	Adopt bool
	// Shard addresses the directory partition owning Obj (0 under a
	// single-partition directory). The requester computes it from the
	// deployment's shared placement; the directory host dispatches on it
	// and rejects mismatches, which catches placement disagreement early.
	Shard int32
	// Epoch is the requester's placement-map version under a replicated
	// control plane; a host serving a newer epoch rejects the request with
	// a RouteResp. Encoded as a trailing optional section — epoch-0
	// (static-placement) requests stay byte-identical to the legacy format.
	Epoch uint64
}

// Type implements Msg.
func (*AcquireReq) Type() MsgType { return TAcquireReq }

// adoptFlag is AcquireReq.Adopt's bit in the mode byte; lock modes are 1
// and 2.
const adoptFlag = 0x80

// The lock-protocol layouts (acquire/release/grant/abort) ride the
// per-transaction fast path and are annotated allocation-free end to end;
// the page-transfer layouts carry payload slices and are not.
func (m *AcquireReq) layout(c *coder) {
	u64(c, &m.ReqID)
	u64(c, &m.Obj)
	txRef(c, &m.Ref)
	u64(c, &m.Family)
	u64(c, &m.Age)
	u32(c, &m.Site)
	mode := uint8(m.Mode)
	if m.Adopt {
		mode |= adoptFlag
	}
	u8(c, &mode)
	if c.decoding {
		m.Mode, m.Adopt = o2pl.Mode(mode&^adoptFlag), mode&adoptFlag != 0
	}
	u32(c, &m.Shard)
	if c.trailing(m.Epoch != 0) {
		u64(c, &m.Epoch)
	}
}

// RequestID implements Idempotent.
func (m *AcquireReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *AcquireReq) SetRequestID(id uint64) { m.ReqID = id }

// AcquireResp replies to AcquireReq.
type AcquireResp struct {
	Obj        ids.ObjectID
	Status     gdo.AcquireStatus
	Mode       o2pl.Mode
	NumPages   int32
	LastWriter ids.NodeID
	// Shard echoes the request's partition so replies are attributed to
	// the same shard in the stats trace.
	Shard   int32
	PageMap []gdo.PageLoc
}

// Type implements Msg.
func (*AcquireResp) Type() MsgType { return TAcquireResp }

func (m *AcquireResp) layout(c *coder) {
	u64(c, &m.Obj)
	u8(c, &m.Status)
	u8(c, &m.Mode)
	u32(c, &m.NumPages)
	u32(c, &m.LastWriter)
	u32(c, &m.Shard)
	list(c, &m.PageMap, pageLoc)
}

// ReleaseReq releases a family's holds on the listed objects (Alg 4.4
// input), with dirty-page info piggybacked.
type ReleaseReq struct {
	// ReqID is the stable idempotency key (see Idempotent; 0 = unstamped).
	ReqID  uint64
	Family ids.FamilyID
	Site   ids.NodeID
	// Commit distinguishes a root-commit release (dirty pages stamped,
	// locks possibly kept at the site) from an abort release.
	Commit bool
	// Shard addresses the directory partition owning every object in
	// Rels; releasing sites batch one ReleaseReq per (home, shard).
	Shard int32
	Rels  []gdo.ObjectRelease
	// Epoch is the requester's placement-map version (see AcquireReq.Epoch);
	// a trailing optional section, absent at epoch 0.
	Epoch uint64
}

// Type implements Msg.
func (*ReleaseReq) Type() MsgType { return TReleaseReq }

func (m *ReleaseReq) layout(c *coder) {
	u64(c, &m.ReqID)
	u64(c, &m.Family)
	u32(c, &m.Site)
	c.boolean(&m.Commit)
	u32(c, &m.Shard)
	list(c, &m.Rels, objRelease)
	if c.trailing(m.Epoch != 0) {
		u64(c, &m.Epoch)
	}
}

// RequestID implements Idempotent.
func (m *ReleaseReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *ReleaseReq) SetRequestID(id uint64) { m.ReqID = id }

// ReleaseResp replies with the new page versions assigned.
type ReleaseResp struct {
	// Shard echoes the request's partition (stats attribution).
	Shard  int32
	Stamps []gdo.PageStamp
	// Kept names the released objects whose lock the directory left with
	// the releasing site as a site hold: the site may grant them to its
	// next roots itself until a Recall. A trailing section present only
	// when non-empty, so a reply that keeps nothing is byte-identical to
	// the format without it.
	Kept []ids.ObjectID
}

// Type implements Msg.
func (*ReleaseResp) Type() MsgType { return TReleaseResp }

func (m *ReleaseResp) layout(c *coder) {
	u32(c, &m.Shard)
	list(c, &m.Stamps, pageStamp)
	if c.trailing(len(m.Kept) > 0) {
		list(c, &m.Kept, u64[ids.ObjectID])
		if len(m.Kept) == 0 {
			c.fault(errEmptyKept)
		}
	}
}

// Grant delivers a deferred lock grant to the new holder family's site:
// the family's request list plus the page map (Alg 4.4's "Send the list
// pointed to by HolderPtr and the page map to the new holder's site").
type Grant struct {
	Obj        ids.ObjectID
	Family     ids.FamilyID
	Mode       o2pl.Mode
	Upgrade    bool
	NumPages   int32
	LastWriter ids.NodeID
	// Shard is the directory partition the grant originated from.
	Shard   int32
	Reqs    []gdo.QueuedReq
	PageMap []gdo.PageLoc
}

// Type implements Msg.
func (*Grant) Type() MsgType { return TGrant }

func (m *Grant) layout(c *coder) {
	u64(c, &m.Obj)
	u64(c, &m.Family)
	u8(c, &m.Mode)
	c.boolean(&m.Upgrade)
	u32(c, &m.NumPages)
	u32(c, &m.LastWriter)
	u32(c, &m.Shard)
	list(c, &m.Reqs, queuedReq)
	list(c, &m.PageMap, pageLoc)
}

// Abort tells a site its family's queued requests were cancelled as a
// deadlock victim.
type Abort struct {
	Obj    ids.ObjectID
	Family ids.FamilyID
	// Shard is the directory partition that cancelled the requests.
	Shard int32
	Reqs  []gdo.QueuedReq
}

// Type implements Msg.
func (*Abort) Type() MsgType { return TAbort }

func (m *Abort) layout(c *coder) {
	u64(c, &m.Obj)
	u64(c, &m.Family)
	u32(c, &m.Shard)
	list(c, &m.Reqs, queuedReq)
}

// Recall tells a site that a request conflicting with the site hold it
// retains on Obj is queued at the directory. One-way and sent once, like
// Grant and Abort: the site hands the grant back with a non-committing
// ReleaseReq under Family (the site's reserved family ID) when it is idle,
// or adopts it for the local family using it.
type Recall struct {
	Obj    ids.ObjectID
	Family ids.FamilyID
	// Shard is the directory partition holding the queue.
	Shard int32
}

// Type implements Msg.
func (*Recall) Type() MsgType { return TRecall }

func (m *Recall) layout(c *coder) {
	u64(c, &m.Obj)
	u64(c, &m.Family)
	u32(c, &m.Shard)
}

// PushResp acknowledges a MultiPushReq (pushes must land before the lock
// is released).
type PushResp struct{}

// Type implements Msg.
func (*PushResp) Type() MsgType { return TPushResp }

func (*PushResp) layout(*coder) {}

// CopySetReq asks the GDO which sites cache each of the listed objects.
// Root commit batches the lookups for all dirty objects of a family into
// one request per home site.
type CopySetReq struct {
	// ReqID is the stable idempotency key (see Idempotent; 0 = unstamped).
	ReqID uint64
	Objs  []ids.ObjectID
}

// Type implements Msg.
func (*CopySetReq) Type() MsgType { return TCopySetReq }

func (m *CopySetReq) layout(c *coder) {
	u64(c, &m.ReqID)
	list(c, &m.Objs, u64[ids.ObjectID])
}

// RequestID implements Idempotent.
func (m *CopySetReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *CopySetReq) SetRequestID(id uint64) { m.ReqID = id }

// CopySet is one object's caching sites within a CopySetResp.
type CopySet struct {
	Obj   ids.ObjectID
	Sites []ids.NodeID
}

// CopySetResp lists the caching sites per requested object.
type CopySetResp struct {
	Sets []CopySet
}

// Type implements Msg.
func (*CopySetResp) Type() MsgType { return TCopySetResp }

func (m *CopySetResp) layout(c *coder) { list(c, &m.Sets, copySet) }

// RegisterReq registers an object in the GDO (deployment setup).
type RegisterReq struct {
	Obj      ids.ObjectID
	Class    ids.ClassID
	NumPages int32
	Owner    ids.NodeID
}

// Type implements Msg.
func (*RegisterReq) Type() MsgType { return TRegisterReq }

func (m *RegisterReq) layout(c *coder) {
	u64(c, &m.Obj)
	u32(c, &m.Class)
	u32(c, &m.NumPages)
	u32(c, &m.Owner)
}

// RunReq asks a node to run a root transaction: invoke Method on Obj.
type RunReq struct {
	Obj    ids.ObjectID
	Method string
	Arg    []byte
}

// Type implements Msg.
func (*RunReq) Type() MsgType { return TRunReq }

func (m *RunReq) layout(c *coder) {
	u64(c, &m.Obj)
	c.str(&m.Method)
	c.bytes(&m.Arg)
}

// RunResp returns a root transaction's result.
type RunResp struct {
	Result []byte
	ErrMsg string
}

// Type implements Msg.
func (*RunResp) Type() MsgType { return TRunResp }

func (m *RunResp) layout(c *coder) {
	c.bytes(&m.Result)
	c.str(&m.ErrMsg)
}

// ErrResp is a generic error reply.
type ErrResp struct {
	Msg string
}

// Type implements Msg.
func (*ErrResp) Type() MsgType { return TErrResp }

func (m *ErrResp) layout(c *coder) { c.str(&m.Msg) }

// ObjPages names one object's pages within a batched fetch request.
type ObjPages struct {
	Obj   ids.ObjectID
	Pages []ids.PageNum
	// Bases, when present, runs parallel to Pages: the version of the
	// requester's resident copy of each page (0 = no usable copy). A serving
	// site may answer a page whose base it can still cover from its
	// dirty-range journal with a DeltaPage instead of the full payload.
	// The section is flagged in the page count's high bit, so base-free
	// requests encode byte-identically to the pre-delta wire format.
	Bases []uint64
}

// hasBases reports whether the base-version section is encoded: Bases must
// be exactly parallel to a non-empty Pages list.
func (o ObjPages) hasBases() bool { return len(o.Pages) > 0 && len(o.Bases) == len(o.Pages) }

// ObjPayload carries one object's page payloads within a batched reply or
// push. Pages carry full payloads; Deltas carry pages answered as dirty-range
// deltas (the optional section is flagged in the page count's high bit, so
// delta-free payloads encode byte-identically to the pre-delta wire format).
type ObjPayload struct {
	Obj    ids.ObjectID
	Pages  []PagePayload
	Deltas []DeltaPage
}

// MultiFetchReq asks one site for pages of several objects in a single
// round-trip: the xfer pipeline's batch stage groups the gather plan across
// objects by source site (Alg 4.5's per-site copy, batched). Demand marks a
// post-misprediction demand fetch (§4.3).
type MultiFetchReq struct {
	// ReqID is the stable idempotency key (see Idempotent; 0 = unstamped).
	ReqID  uint64
	Demand bool
	Objs   []ObjPages
}

// Type implements Msg.
func (*MultiFetchReq) Type() MsgType { return TMultiFetchReq }

func (m *MultiFetchReq) layout(c *coder) {
	u64(c, &m.ReqID)
	c.boolean(&m.Demand)
	list(c, &m.Objs, objPages)
}

// RequestID implements Idempotent.
func (m *MultiFetchReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *MultiFetchReq) SetRequestID(id uint64) { m.ReqID = id }

// MultiFetchResp returns the payloads of a MultiFetchReq, grouped per
// object.
type MultiFetchResp struct {
	Objs []ObjPayload
}

// Type implements Msg.
func (*MultiFetchResp) Type() MsgType { return TMultiFetchResp }

func (m *MultiFetchResp) layout(c *coder) { list(c, &m.Objs, objPayload) }

// MultiPushReq eagerly pushes the updated pages of several objects to one
// caching site in a single round-trip (the §6 Release Consistency push
// fan-out, batched per destination). Acknowledged with PushResp.
type MultiPushReq struct {
	// ReqID is the stable idempotency key (see Idempotent; 0 = unstamped).
	ReqID uint64
	Objs  []ObjPayload
}

// Type implements Msg.
func (*MultiPushReq) Type() MsgType { return TMultiPushReq }

func (m *MultiPushReq) layout(c *coder) {
	u64(c, &m.ReqID)
	list(c, &m.Objs, objPayload)
}

// RequestID implements Idempotent.
func (m *MultiPushReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *MultiPushReq) SetRequestID(id uint64) { m.ReqID = id }

// ErrUnknownType reports an undecodable message type.
var ErrUnknownType = errors.New("wire: unknown message type")

// newMsg constructs an empty message of the given type.
func newMsg(t MsgType) (Msg, error) {
	switch t {
	case TAcquireReq:
		return &AcquireReq{}, nil
	case TAcquireResp:
		return &AcquireResp{}, nil
	case TReleaseReq:
		return &ReleaseReq{}, nil
	case TReleaseResp:
		return &ReleaseResp{}, nil
	case TGrant:
		return &Grant{}, nil
	case TAbort:
		return &Abort{}, nil
	case TPushResp:
		return &PushResp{}, nil
	case TCopySetReq:
		return &CopySetReq{}, nil
	case TCopySetResp:
		return &CopySetResp{}, nil
	case TRegisterReq:
		return &RegisterReq{}, nil
	case TRunReq:
		return &RunReq{}, nil
	case TRunResp:
		return &RunResp{}, nil
	case TErrResp:
		return &ErrResp{}, nil
	case TMultiFetchReq:
		return &MultiFetchReq{}, nil
	case TMultiFetchResp:
		return &MultiFetchResp{}, nil
	case TMultiPushReq:
		return &MultiPushReq{}, nil
	case TReplicateReq:
		return &ReplicateReq{}, nil
	case TReplicateResp:
		return &ReplicateResp{}, nil
	case TPromoteReq:
		return &PromoteReq{}, nil
	case TPromoteResp:
		return &PromoteResp{}, nil
	case TEpochChangeReq:
		return &EpochChangeReq{}, nil
	case TEpochChangeResp:
		return &EpochChangeResp{}, nil
	case THandoffStartReq:
		return &HandoffStartReq{}, nil
	case THandoffStartResp:
		return &HandoffStartResp{}, nil
	case THandoffReq:
		return &HandoffReq{}, nil
	case THandoffResp:
		return &HandoffResp{}, nil
	case TRouteResp:
		return &RouteResp{}, nil
	case TWaitEdgeUpdate:
		return &WaitEdgeUpdate{}, nil
	case TWaitEdgeResp:
		return &WaitEdgeResp{}, nil
	case TAbortFamilyReq:
		return &AbortFamilyReq{}, nil
	case TAbortFamilyResp:
		return &AbortFamilyResp{}, nil
	case TRecall:
		return &Recall{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
}
