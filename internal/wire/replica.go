package wire

import (
	"fmt"

	"lotec/internal/ids"
)

// Control-plane replication messages. A directory shard is a replicated,
// relocatable state machine: its primary chains every state-mutating op to
// a backup (ReplicateReq) before replying, clients promote the backup when
// the primary dies (PromoteReq), and online resharding hands a shard's full
// state to a new owner mid-workload (HandoffStartReq/HandoffReq) with a
// witness-ratified epoch bump (EpochChangeReq). The placement map itself is
// a versioned, epoch-stamped object (PlacementMap); any host can reject a
// stale-epoch request with RouteResp carrying the newer map, which replaces
// the static placement-mismatch check. Cross-host deadlock detection rides
// WaitEdgeUpdate/AbortFamilyReq; the global commit order is fixed by the
// shard-0 primary when a family's committing ReleaseReq reaches it.

// PlacementMap is the versioned shard→owner map distributed to every node.
// Epoch starts at 1 and bumps on every promotion or handoff; requests
// stamped with an older epoch are rejected with the current map.
type PlacementMap struct {
	Epoch uint64
	// Nodes is the data-site count backing Placement.HomeNode attribution.
	Nodes int32
	// Primary[s] serves shard s; Backup[s] replicates it (NoNode = none).
	Primary []ids.NodeID
	Backup  []ids.NodeID
}

// size is the map's on-wire section size.
func (p PlacementMap) size() int { return 8 + 4 + 4 + 8*len(p.Primary) }

// NumShards returns the shard count the map covers.
func (p PlacementMap) NumShards() int { return len(p.Primary) }

// Equal reports whether two maps are identical.
func (p PlacementMap) Equal(q PlacementMap) bool {
	if p.Epoch != q.Epoch || p.Nodes != q.Nodes || len(p.Primary) != len(q.Primary) {
		return false
	}
	for i := range p.Primary {
		if p.Primary[i] != q.Primary[i] || p.Backup[i] != q.Backup[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy (the route layer mutates adopted maps never).
func (p PlacementMap) Clone() PlacementMap {
	q := p
	q.Primary = append([]ids.NodeID(nil), p.Primary...)
	q.Backup = append([]ids.NodeID(nil), p.Backup...)
	return q
}

func encodeMap(w *writer, p PlacementMap) {
	w.u64(p.Epoch)
	w.i32(p.Nodes)
	w.u32(uint32(len(p.Primary)))
	for i := range p.Primary {
		w.i32(int32(p.Primary[i]))
		w.i32(int32(p.Backup[i]))
	}
}

func decodeMap(r *reader) PlacementMap {
	p := PlacementMap{Epoch: r.u64(), Nodes: r.i32()}
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > 1<<16) {
		r.err = fmt.Errorf("wire: absurd shard count %d", n)
		return p
	}
	for i := 0; i < n && r.err == nil; i++ {
		p.Primary = append(p.Primary, ids.NodeID(r.i32()))
		p.Backup = append(p.Backup, ids.NodeID(r.i32()))
	}
	return p
}

// ReplicateReq chains one state-mutating shard op from primary to backup:
// the original client frame (Op, a full Encode'd message) plus the
// primary's deadlock decisions (Purges: families self-victimized at
// enqueue; Aborts: waiting families victimized), so the backup applies
// mechanically and both replicas stay byte-identical. Seq orders ops per
// shard; the backup rejects anything but Seq = applied+1. Client carries
// the original requester and Reply the primary's computed answer, so the
// backup can prime its idempotency cache for exactly-once semantics across
// a promotion: the client's retried request replays Reply verbatim.
type ReplicateReq struct {
	// ReqID is the stable idempotency key (see Idempotent; 0 = unstamped).
	ReqID  uint64
	Shard  int32
	Epoch  uint64
	Seq    uint64
	Client ids.NodeID
	Op     []byte
	Reply  []byte
	Purges []ids.FamilyID
	Aborts []ids.FamilyID
	// Map is the primary's current placement map. A backup whose own map
	// lags (a promotion elsewhere bumped the epoch without a witness round)
	// adopts it instead of refusing — a refusal can only carry the backup's
	// older map, which would never let the pair reconverge.
	Map PlacementMap
}

// Type implements Msg.
func (*ReplicateReq) Type() MsgType { return TReplicateReq }

// Size implements Msg.
func (m *ReplicateReq) Size() int {
	return HeaderSize + 8 + 4 + 8 + 8 + 4 + 4 + len(m.Op) + 4 + len(m.Reply) +
		4 + 8*len(m.Purges) + 4 + 8*len(m.Aborts) + m.Map.size()
}

// RequestID implements Idempotent.
func (m *ReplicateReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *ReplicateReq) SetRequestID(id uint64) { m.ReqID = id }

// ReplicateResp acknowledges a ReplicateReq. OK false means the backup
// rejected the op (stale epoch or it no longer backs the shard); Map is the
// backup's current placement map either way, keeping the primary fresh.
type ReplicateResp struct {
	OK  bool
	Map PlacementMap
}

// Type implements Msg.
func (*ReplicateResp) Type() MsgType { return TReplicateResp }

// Size implements Msg.
func (m *ReplicateResp) Size() int { return HeaderSize + 1 + m.Map.size() }

// PromoteReq asks a backup to take over every shard it backs whose primary
// is Dead. Clients send it after a Call to the primary exhausts its
// retries. Idempotent: a backup that already promoted (or saw a newer map)
// just returns its current map.
type PromoteReq struct {
	// ReqID is the stable idempotency key (see Idempotent; 0 = unstamped).
	ReqID uint64
	Dead  ids.NodeID
	// Epoch is the requester's map epoch (what it believed when the
	// primary stopped answering).
	Epoch uint64
}

// Type implements Msg.
func (*PromoteReq) Type() MsgType { return TPromoteReq }

// Size implements Msg.
func (*PromoteReq) Size() int { return HeaderSize + 8 + 4 + 8 }

// RequestID implements Idempotent.
func (m *PromoteReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *PromoteReq) SetRequestID(id uint64) { m.ReqID = id }

// PromoteResp returns the (possibly just-bumped) placement map.
type PromoteResp struct {
	Map PlacementMap
}

// Type implements Msg.
func (*PromoteResp) Type() MsgType { return TPromoteResp }

// Size implements Msg.
func (m *PromoteResp) Size() int { return HeaderSize + m.Map.size() }

// EpochChangeReq proposes a new placement map to a witness (the shard's
// backup). The witness accepts a proposal for exactly epoch+1 — first
// proposal wins; a conflicting proposal at the same epoch is rejected with
// the winner's map. This serializes the handoff-activation vs.
// handoff-cancellation race when the old and new primaries are partitioned.
type EpochChangeReq struct {
	// ReqID is the stable idempotency key (see Idempotent; 0 = unstamped).
	ReqID uint64
	Map   PlacementMap
}

// Type implements Msg.
func (*EpochChangeReq) Type() MsgType { return TEpochChangeReq }

// Size implements Msg.
func (m *EpochChangeReq) Size() int { return HeaderSize + 8 + m.Map.size() }

// RequestID implements Idempotent.
func (m *EpochChangeReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *EpochChangeReq) SetRequestID(id uint64) { m.ReqID = id }

// EpochChangeResp reports whether the proposal was ratified; Map is the
// witness's current map either way.
type EpochChangeResp struct {
	OK  bool
	Map PlacementMap
}

// Type implements Msg.
func (*EpochChangeResp) Type() MsgType { return TEpochChangeResp }

// Size implements Msg.
func (m *EpochChangeResp) Size() int { return HeaderSize + 1 + m.Map.size() }

// HandoffStartReq tells a shard's current primary to hand the shard to
// Target: seal intake, drain in-flight replication, export state, ship it.
type HandoffStartReq struct {
	// ReqID is the stable idempotency key (see Idempotent; 0 = unstamped).
	ReqID  uint64
	Shard  int32
	Target ids.NodeID
}

// Type implements Msg.
func (*HandoffStartReq) Type() MsgType { return THandoffStartReq }

// Size implements Msg.
func (*HandoffStartReq) Size() int { return HeaderSize + 8 + 4 + 4 }

// RequestID implements Idempotent.
func (m *HandoffStartReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *HandoffStartReq) SetRequestID(id uint64) { m.ReqID = id }

// HandoffStartResp completes a HandoffStartReq once the handoff finished
// (or was cancelled). StateBytes is the exported snapshot size — the
// ledger's "handoff bytes" metric.
type HandoffStartResp struct {
	OK         bool
	StateBytes uint64
	Map        PlacementMap
}

// Type implements Msg.
func (*HandoffStartResp) Type() MsgType { return THandoffStartResp }

// Size implements Msg.
func (m *HandoffStartResp) Size() int { return HeaderSize + 1 + 8 + m.Map.size() }

// HandoffReq ships a sealed shard's exported state to its new owner. Map is
// the proposed post-handoff placement (epoch+1, Target as primary); Seq is
// the shard's replication sequence so the new primary continues the op log
// without a gap.
type HandoffReq struct {
	// ReqID is the stable idempotency key (see Idempotent; 0 = unstamped).
	ReqID uint64
	Shard int32
	Seq   uint64
	Map   PlacementMap
	State []byte
}

// Type implements Msg.
func (*HandoffReq) Type() MsgType { return THandoffReq }

// Size implements Msg.
func (m *HandoffReq) Size() int {
	return HeaderSize + 8 + 4 + 8 + m.Map.size() + 4 + len(m.State)
}

// RequestID implements Idempotent.
func (m *HandoffReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *HandoffReq) SetRequestID(id uint64) { m.ReqID = id }

// HandoffResp reports whether the target activated the shard (its
// EpochChangeReq to the witness was ratified). Map is the target's current
// map — on OK the post-handoff map, on rejection whatever newer map won.
type HandoffResp struct {
	OK  bool
	Map PlacementMap
}

// Type implements Msg.
func (*HandoffResp) Type() MsgType { return THandoffResp }

// Size implements Msg.
func (m *HandoffResp) Size() int { return HeaderSize + 1 + m.Map.size() }

// RouteResp rejects a stale-epoch or wrong-owner request, carrying the
// responder's newer placement map; the client adopts it and retries. This
// replaces the static placement-mismatch ErrResp of the pre-replication
// directory host.
type RouteResp struct {
	Map PlacementMap
}

// Type implements Msg.
func (*RouteResp) Type() MsgType { return TRouteResp }

// Size implements Msg.
func (m *RouteResp) Size() int { return HeaderSize + m.Map.size() }

// WaitEdge is one waits-for edge in a host's local union graph.
type WaitEdge struct {
	From, To ids.FamilyID
}

// FamilyAge pairs a family with its deadlock-victim priority.
type FamilyAge struct {
	Family ids.FamilyID
	Age    uint64
}

// WaitEdgeUpdate pushes a host's full local waits-for graph to the
// detection coordinator (the shard-0 primary). Ver is a per-sender
// monotonic version so reordered updates cannot regress the coordinator's
// view; the reply carries the coordinator's map so a host pushing to a
// deposed coordinator re-routes itself.
type WaitEdgeUpdate struct {
	// ReqID is the stable idempotency key (see Idempotent; 0 = unstamped).
	ReqID uint64
	Ver   uint64
	Epoch uint64
	Edges []WaitEdge
	Ages  []FamilyAge
}

// Type implements Msg.
func (*WaitEdgeUpdate) Type() MsgType { return TWaitEdgeUpdate }

// Size implements Msg.
func (m *WaitEdgeUpdate) Size() int {
	return HeaderSize + 8 + 8 + 8 + 4 + 16*len(m.Edges) + 4 + 16*len(m.Ages)
}

// RequestID implements Idempotent.
func (m *WaitEdgeUpdate) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *WaitEdgeUpdate) SetRequestID(id uint64) { m.ReqID = id }

// WaitEdgeResp acknowledges a WaitEdgeUpdate with the coordinator's map.
type WaitEdgeResp struct {
	Map PlacementMap
}

// Type implements Msg.
func (*WaitEdgeResp) Type() MsgType { return TWaitEdgeResp }

// Size implements Msg.
func (m *WaitEdgeResp) Size() int { return HeaderSize + m.Map.size() }

// AbortFamilyReq tells a host to victimize Family on every shard it serves
// (the coordinator's cross-host deadlock resolution). A host where the
// family waits nowhere treats it as a no-op.
type AbortFamilyReq struct {
	// ReqID is the stable idempotency key (see Idempotent; 0 = unstamped).
	ReqID  uint64
	Family ids.FamilyID
	Epoch  uint64
}

// Type implements Msg.
func (*AbortFamilyReq) Type() MsgType { return TAbortFamilyReq }

// Size implements Msg.
func (*AbortFamilyReq) Size() int { return HeaderSize + 8 + 8 + 8 }

// RequestID implements Idempotent.
func (m *AbortFamilyReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *AbortFamilyReq) SetRequestID(id uint64) { m.ReqID = id }

// AbortFamilyResp acknowledges an AbortFamilyReq (the aborts themselves
// complete asynchronously through the shard op logs).
type AbortFamilyResp struct{}

// Type implements Msg.
func (*AbortFamilyResp) Type() MsgType { return TAbortFamilyResp }

// Size implements Msg.
func (*AbortFamilyResp) Size() int { return HeaderSize }

// Codec bodies for the replication messages. None of them ride the
// per-transaction lock fast path, so they are not //lotec:noalloc.

func (m *ReplicateReq) encodeBody(w *writer) {
	w.u64(m.ReqID)
	w.i32(m.Shard)
	w.u64(m.Epoch)
	w.u64(m.Seq)
	w.i32(int32(m.Client))
	w.bytes(m.Op)
	w.bytes(m.Reply)
	w.u32(uint32(len(m.Purges)))
	for _, f := range m.Purges {
		w.u64(uint64(f))
	}
	w.u32(uint32(len(m.Aborts)))
	for _, f := range m.Aborts {
		w.u64(uint64(f))
	}
	encodeMap(w, m.Map)
}

func (m *ReplicateReq) decodeBody(r *reader) {
	m.ReqID = r.u64()
	m.Shard = r.i32()
	m.Epoch = r.u64()
	m.Seq = r.u64()
	m.Client = ids.NodeID(r.i32())
	m.Op = r.bytes()
	m.Reply = r.bytes()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Purges = append(m.Purges, ids.FamilyID(r.u64()))
	}
	n = r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Aborts = append(m.Aborts, ids.FamilyID(r.u64()))
	}
	m.Map = decodeMap(r)
}

func (m *ReplicateResp) encodeBody(w *writer) {
	w.boolean(m.OK)
	encodeMap(w, m.Map)
}

func (m *ReplicateResp) decodeBody(r *reader) {
	m.OK = r.boolean()
	m.Map = decodeMap(r)
}

func (m *PromoteReq) encodeBody(w *writer) {
	w.u64(m.ReqID)
	w.i32(int32(m.Dead))
	w.u64(m.Epoch)
}

func (m *PromoteReq) decodeBody(r *reader) {
	m.ReqID = r.u64()
	m.Dead = ids.NodeID(r.i32())
	m.Epoch = r.u64()
}

func (m *PromoteResp) encodeBody(w *writer) { encodeMap(w, m.Map) }
func (m *PromoteResp) decodeBody(r *reader) { m.Map = decodeMap(r) }

func (m *EpochChangeReq) encodeBody(w *writer) {
	w.u64(m.ReqID)
	encodeMap(w, m.Map)
}

func (m *EpochChangeReq) decodeBody(r *reader) {
	m.ReqID = r.u64()
	m.Map = decodeMap(r)
}

func (m *EpochChangeResp) encodeBody(w *writer) {
	w.boolean(m.OK)
	encodeMap(w, m.Map)
}

func (m *EpochChangeResp) decodeBody(r *reader) {
	m.OK = r.boolean()
	m.Map = decodeMap(r)
}

func (m *HandoffStartReq) encodeBody(w *writer) {
	w.u64(m.ReqID)
	w.i32(m.Shard)
	w.i32(int32(m.Target))
}

func (m *HandoffStartReq) decodeBody(r *reader) {
	m.ReqID = r.u64()
	m.Shard = r.i32()
	m.Target = ids.NodeID(r.i32())
}

func (m *HandoffStartResp) encodeBody(w *writer) {
	w.boolean(m.OK)
	w.u64(m.StateBytes)
	encodeMap(w, m.Map)
}

func (m *HandoffStartResp) decodeBody(r *reader) {
	m.OK = r.boolean()
	m.StateBytes = r.u64()
	m.Map = decodeMap(r)
}

func (m *HandoffReq) encodeBody(w *writer) {
	w.u64(m.ReqID)
	w.i32(m.Shard)
	w.u64(m.Seq)
	encodeMap(w, m.Map)
	w.bytes(m.State)
}

func (m *HandoffReq) decodeBody(r *reader) {
	m.ReqID = r.u64()
	m.Shard = r.i32()
	m.Seq = r.u64()
	m.Map = decodeMap(r)
	m.State = r.bytes()
}

func (m *HandoffResp) encodeBody(w *writer) {
	w.boolean(m.OK)
	encodeMap(w, m.Map)
}

func (m *HandoffResp) decodeBody(r *reader) {
	m.OK = r.boolean()
	m.Map = decodeMap(r)
}

func (m *RouteResp) encodeBody(w *writer) { encodeMap(w, m.Map) }
func (m *RouteResp) decodeBody(r *reader) { m.Map = decodeMap(r) }

func (m *WaitEdgeUpdate) encodeBody(w *writer) {
	w.u64(m.ReqID)
	w.u64(m.Ver)
	w.u64(m.Epoch)
	w.u32(uint32(len(m.Edges)))
	for _, e := range m.Edges {
		w.u64(uint64(e.From))
		w.u64(uint64(e.To))
	}
	w.u32(uint32(len(m.Ages)))
	for _, a := range m.Ages {
		w.u64(uint64(a.Family))
		w.u64(a.Age)
	}
}

func (m *WaitEdgeUpdate) decodeBody(r *reader) {
	m.ReqID = r.u64()
	m.Ver = r.u64()
	m.Epoch = r.u64()
	n := r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Edges = append(m.Edges, WaitEdge{From: ids.FamilyID(r.u64()), To: ids.FamilyID(r.u64())})
	}
	n = r.count()
	for i := 0; i < n && r.err == nil; i++ {
		m.Ages = append(m.Ages, FamilyAge{Family: ids.FamilyID(r.u64()), Age: r.u64()})
	}
}

func (m *WaitEdgeResp) encodeBody(w *writer) { encodeMap(w, m.Map) }
func (m *WaitEdgeResp) decodeBody(r *reader) { m.Map = decodeMap(r) }

func (m *AbortFamilyReq) encodeBody(w *writer) {
	w.u64(m.ReqID)
	w.u64(uint64(m.Family))
	w.u64(m.Epoch)
}

func (m *AbortFamilyReq) decodeBody(r *reader) {
	m.ReqID = r.u64()
	m.Family = ids.FamilyID(r.u64())
	m.Epoch = r.u64()
}

func (*AbortFamilyResp) encodeBody(*writer) {}
func (*AbortFamilyResp) decodeBody(*reader) {}
