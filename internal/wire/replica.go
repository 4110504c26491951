package wire

import (
	"lotec/internal/gdo"
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
// WaitEdgeUpdate/AbortFamilyReq. No host keeps a commit order: the page
// versions committing ReleaseReqs stamp are the serialization order.

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

// layout walks the map's section: epoch, node count, then each shard's
// primary and backup.
func (p *PlacementMap) layout(c *coder) {
	u64(c, &p.Epoch)
	u32(c, &p.Nodes)
	n := c.length(len(p.Primary), 1<<16, "shard count")
	for i := 0; i < n && c.err == nil; i++ {
		u32(c, elem(c, &p.Primary, i))
		u32(c, elem(c, &p.Backup, i))
	}
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

func (m *ReplicateReq) layout(c *coder) {
	u64(c, &m.ReqID)
	u32(c, &m.Shard)
	u64(c, &m.Epoch)
	u64(c, &m.Seq)
	u32(c, &m.Client)
	c.bytes(&m.Op)
	c.bytes(&m.Reply)
	list(c, &m.Purges, u64[ids.FamilyID])
	list(c, &m.Aborts, u64[ids.FamilyID])
	m.Map.layout(c)
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

func (m *ReplicateResp) layout(c *coder) {
	c.boolean(&m.OK)
	m.Map.layout(c)
}

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

func (m *PromoteReq) layout(c *coder) {
	u64(c, &m.ReqID)
	u32(c, &m.Dead)
	u64(c, &m.Epoch)
}

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

func (m *PromoteResp) layout(c *coder) { m.Map.layout(c) }

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

func (m *EpochChangeReq) layout(c *coder) {
	u64(c, &m.ReqID)
	m.Map.layout(c)
}

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

func (m *EpochChangeResp) layout(c *coder) {
	c.boolean(&m.OK)
	m.Map.layout(c)
}

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

func (m *HandoffStartReq) layout(c *coder) {
	u64(c, &m.ReqID)
	u32(c, &m.Shard)
	u32(c, &m.Target)
}

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

func (m *HandoffStartResp) layout(c *coder) {
	c.boolean(&m.OK)
	u64(c, &m.StateBytes)
	m.Map.layout(c)
}

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

func (m *HandoffReq) layout(c *coder) {
	u64(c, &m.ReqID)
	u32(c, &m.Shard)
	u64(c, &m.Seq)
	m.Map.layout(c)
	c.bytes(&m.State)
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

func (m *HandoffResp) layout(c *coder) {
	c.boolean(&m.OK)
	m.Map.layout(c)
}

// RouteResp rejects a stale-epoch or wrong-owner request, carrying the
// responder's newer placement map; the client adopts it and retries. This
// replaces the static placement-mismatch ErrResp of the pre-replication
// directory host.
type RouteResp struct {
	Map PlacementMap
}

// Type implements Msg.
func (*RouteResp) Type() MsgType { return TRouteResp }

func (m *RouteResp) layout(c *coder) { m.Map.layout(c) }

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
	Edges []gdo.WaitEdge
	Ages  []gdo.FamilyAge
}

// Type implements Msg.
func (*WaitEdgeUpdate) Type() MsgType { return TWaitEdgeUpdate }

func (m *WaitEdgeUpdate) layout(c *coder) {
	u64(c, &m.ReqID)
	u64(c, &m.Ver)
	u64(c, &m.Epoch)
	list(c, &m.Edges, waitEdge)
	list(c, &m.Ages, familyAge)
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

func (m *WaitEdgeResp) layout(c *coder) { m.Map.layout(c) }

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

func (m *AbortFamilyReq) layout(c *coder) {
	u64(c, &m.ReqID)
	u64(c, &m.Family)
	u64(c, &m.Epoch)
}

// RequestID implements Idempotent.
func (m *AbortFamilyReq) RequestID() uint64 { return m.ReqID }

// SetRequestID implements Idempotent.
func (m *AbortFamilyReq) SetRequestID(id uint64) { m.ReqID = id }

// AbortFamilyResp acknowledges an AbortFamilyReq (the aborts themselves
// complete asynchronously through the shard op logs).
type AbortFamilyResp struct{}

// Type implements Msg.
func (*AbortFamilyResp) Type() MsgType { return TAbortFamilyResp }

func (*AbortFamilyResp) layout(*coder) {}

func waitEdge(c *coder, e *gdo.WaitEdge) {
	u64(c, &e.From)
	u64(c, &e.To)
}

func familyAge(c *coder, a *gdo.FamilyAge) {
	u64(c, &a.Family)
	u64(c, &a.Age)
}
