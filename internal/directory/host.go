// The replicated directory shard host.
//
// A Host is one node's worth of the replicated control plane: for every
// shard the placement map assigns it, it holds a replica — a plain
// gdo.Directory plus replication bookkeeping — and serves the shard either
// as primary (applying operations and shipping them to the backup) or as
// backup (applying the primary's ordered op log and standing by for
// promotion). Hosts are wire-level actors behind a transport.AsyncHandler:
// a client operation is applied to the primary's directory immediately,
// but its reply is withheld and its events are not routed until the backup
// has acknowledged the op, so at most one acknowledged-but-unnotified
// operation exists per shard at any time — exactly the window promotion
// closes by replaying the backup's last applied events (all of which are
// duplicate-safe at the receiving engines).
//
// The op log is the simplest thing that works: a per-shard FIFO with one
// ReplicateReq in flight. Each ReplicateReq carries the encoded client
// operation, the primary's exact encoded reply (the backup primes its
// idempotency cache with it, so a client retrying against the promoted
// backup gets a byte-identical answer), and any host-level deadlock
// decisions (purges/aborts) the op triggered on that shard. Decisions
// touching a host's *other* shards ride those shards' own logs as
// decision-only entries. A shard with no live backup keeps no log: an op
// with nothing queued ahead of it is answered, and its events routed, in
// place, and nothing is encoded. That is every shard of a deployment with
// one host — the TCP directory server (server.GDOServer) is such a host.
//
// Ownership rule (the whole consistency argument): a host processes a
// client operation if and only if the stamped epoch equals its own map's
// epoch and its own map names it the shard's primary. Anything else gets a
// RouteResp carrying the host's map; every actor adopts only strictly
// newer maps. Epochs bump exactly once per promotion (serialized by the
// backup executing it) and once per handoff (serialized by the witness
// ratifying it), so no two distinct maps share an epoch.
//
// Failure model: single failure per shard group. A backup that stops
// acking is declared down and the primary continues unreplicated; a
// primary that stops answering is replaced by client-driven promotion.
// Losing both replicas, or partitioning a client from both, is outside
// the budget (the route layer reports ErrNoRoute).

package directory

import (
	"fmt"
	"sync"

	"lotec/internal/fault"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// HostConfig assembles one replicated directory host.
type HostConfig struct {
	// Env is the host's transport endpoint.
	Env transport.Env
	// Place is the shared object→shard assignment.
	Place Placement
	// Map is the initial placement (see InitialMap).
	Map wire.PlacementMap
	// Rec receives failover/handoff/epoch-reject samples. May be nil.
	Rec *stats.Recorder
	// RetainGrants turns site-retained grants on in every replica this
	// host starts with (a handed-off shard brings its own setting in its
	// snapshot). Every host of a deployment must agree.
	RetainGrants bool
}

// Host is one node of the replicated control plane. All state is guarded
// by mu; handler work runs under it and defers every blocking or reentrant
// action (replies, event routing, outbound RPC procs) to an acts list run
// after unlock.
type Host struct {
	env   transport.Env
	self  ids.NodeID
	place Placement
	rec   *stats.Recorder
	dedup *fault.Dedup

	mu     sync.Mutex
	cur    wire.PlacementMap
	reps   map[int]*replica
	reqCtr uint64

	// Deadlock detection (coord.go): the graph both tiers search, then the
	// tier-2 push state and the coordinator's stored peer summaries.
	graph       gdo.WaitGraph
	edgeVer     uint64
	edgeDirty   bool
	edgeSending bool
	lastEdges   []gdo.WaitEdge
	lastAges    []gdo.FamilyAge
	peers       map[ids.NodeID]peerSummary
}

// replica is one shard's state at one host.
type replica struct {
	shard   int
	dir     *gdo.Directory
	primary bool
	// seq is the last op sequence applied here (primary: last enqueued,
	// backup: last applied from the log). A handoff transfers it so the
	// new primary's log extends the old one's.
	seq uint64

	// Primary-only replication pipeline.
	queue      []*repOp
	inflight   bool
	backupDown bool

	// Handoff (primary-only): sealed parks new ops, handoff tracks the
	// in-progress transfer.
	sealed  bool
	parked  []parkedOp
	handoff *handoffState

	// Backup-only: the events of the last applied op, replayed on
	// promotion to close the acked-but-unnotified window.
	lastEvents []gdo.Event
}

// repOp is one client operation or deadlock decision of a shard, and the
// entry it becomes in the shard's op log.
type repOp struct {
	seq    uint64
	client ids.NodeID
	msg    wire.Msg // the client op; nil for decision-only entries
	reply  wire.Msg
	// opBytes and replyBytes are msg and reply encoded for the backup,
	// when the op joins the log.
	opBytes    []byte
	replyBytes []byte
	events     []gdo.Event
	purges     []ids.FamilyID
	aborts     []ids.FamilyID
	done       func(wire.Msg) // nil for decision-only entries
}

// parkedOp is a client operation held back while its shard is sealed.
type parkedOp struct {
	from  ids.NodeID
	m     wire.Msg
	reply func(wire.Msg)
}

// peerSummary is the coordinator's latest view of one peer host's local
// waits-for graph.
type peerSummary struct {
	ver   uint64
	edges []gdo.WaitEdge
	ages  []gdo.FamilyAge
}

// NewHost builds the host and instantiates a replica for every shard the
// initial map assigns it (as primary or backup).
func NewHost(cfg HostConfig) *Host {
	h := &Host{
		env:   cfg.Env,
		self:  cfg.Env.Self(),
		place: cfg.Place,
		rec:   cfg.Rec,
		dedup: fault.NewDedup(),
		cur:   cfg.Map.Clone(),
		reps:  make(map[int]*replica),
		peers: make(map[ids.NodeID]peerSummary),
	}
	for s := 0; s < h.cur.NumShards(); s++ {
		if h.self != h.cur.Primary[s] && h.self != h.cur.Backup[s] {
			continue
		}
		dir := gdo.New(h.place.Nodes)
		dir.SetRetainGrants(cfg.RetainGrants)
		h.reps[s] = &replica{shard: s, dir: dir, primary: h.self == h.cur.Primary[s]}
	}
	return h
}

// Handler returns the host's message entry point, wrapped in its
// idempotency cache (duplicate retried requests park behind the original
// and receive the same reply; promoted backups answer replayed client
// requests from primed entries).
func (h *Host) Handler() transport.AsyncHandler {
	return h.dedup.WrapAsync(h.handle)
}

// Self returns the host's node ID.
func (h *Host) Self() ids.NodeID { return h.self }

// Map returns a copy of the host's current placement map.
func (h *Host) Map() wire.PlacementMap {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cur.Clone()
}

// RegisterLocal installs an object into this host's replica of its shard
// (primary or backup), if any. Deployments register objects before traffic
// starts so every replica begins from the same directory state.
func (h *Host) RegisterLocal(obj ids.ObjectID, numPages int, owner ids.NodeID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	rep := h.reps[h.place.ShardOf(obj)]
	if rep == nil {
		return nil
	}
	return rep.dir.Register(obj, numPages, owner)
}

// PrimaryDir exposes the directory of a shard this host currently serves
// as primary (oracles and tests).
func (h *Host) PrimaryDir(shard int) (*gdo.Directory, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rep := h.reps[shard]
	if rep == nil || !rep.primary {
		return nil, false
	}
	return rep.dir, true
}

// ReplicaDir exposes any replica's directory plus its role.
func (h *Host) ReplicaDir(shard int) (dir *gdo.Directory, primary, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rep := h.reps[shard]
	if rep == nil {
		return nil, false, false
	}
	return rep.dir, rep.primary, true
}

// DebugDump renders the lock state of every shard this host serves as
// primary (empty when fully drained).
func (h *Host) DebugDump() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := ""
	for s := 0; s < h.cur.NumShards(); s++ {
		rep := h.reps[s]
		if rep == nil || !rep.primary {
			continue
		}
		if d := rep.dir.DebugDump(); d != "" {
			out += fmt.Sprintf("shard %d:\n%s", s, d)
		}
	}
	return out
}

// acts collects side effects produced under h.mu — replies, event fan-out,
// outbound RPC procs — and runs them after unlock, preserving order. This
// keeps the handler non-blocking and non-reentrant as the transport
// contract requires. It lives on its caller's stack: an op's few actions
// fit in buf, and only a longer list spills into more.
type acts struct {
	n    int
	buf  [4]act
	more []act
}

// act is one side effect: a reply (cb with m), an event fan-out (evs) or a
// proc to start (fn).
type act struct {
	cb  func(wire.Msg)
	m   wire.Msg
	evs []gdo.Event
	fn  func()
}

func (a *acts) add(x act) {
	if a.n < len(a.buf) {
		a.buf[a.n] = x
		a.n++
		return
	}
	a.more = append(a.more, x)
}

func (a *acts) reply(cb func(wire.Msg), m wire.Msg) {
	if cb != nil {
		a.add(act{cb: cb, m: m})
	}
}

func (a *acts) events(evs []gdo.Event) {
	if len(evs) > 0 {
		a.add(act{evs: evs})
	}
}

func (a *acts) proc(fn func()) { a.add(act{fn: fn}) }

// run performs the actions in order. Call it after h.mu is released.
func (a *acts) run(h *Host) {
	for i := 0; i < a.n; i++ {
		a.buf[i].do(h)
	}
	for i := range a.more {
		a.more[i].do(h)
	}
}

func (x *act) do(h *Host) {
	switch {
	case x.cb != nil:
		x.cb(x.m)
	case x.evs != nil:
		h.routeEvents(x.evs)
	default:
		h.env.Go(x.fn)
	}
}

// routeEvents ships deferred directory decisions to the affected sites,
// exactly as the in-engine GDO host does (Alg 4.4 notifications).
func (h *Host) routeEvents(events []gdo.Event) {
	for _, ev := range events {
		_ = h.env.Send(ev.Site, EventMsg(ev))
	}
}

// stamp tags events with the shard they originated from.
func stamp(shard int, events []gdo.Event) []gdo.Event {
	for i := range events {
		events[i].Shard = int32(shard)
	}
	return events
}

// handle is the raw (pre-dedup) dispatcher.
func (h *Host) handle(from ids.NodeID, m wire.Msg, reply func(wire.Msg)) {
	var a acts
	h.mu.Lock()
	switch t := m.(type) {
	case *wire.AcquireReq, *wire.ReleaseReq, *wire.RegisterReq:
		shard, epoch := h.addressLocked(m)
		h.clientOpLocked(&a, from, shard, epoch, m, reply)
	case *wire.CopySetReq:
		a.reply(reply, h.copySetLocked(t))
	case *wire.ReplicateReq:
		a.reply(reply, h.replicateLocked(&a, t))
	case *wire.PromoteReq:
		a.reply(reply, h.promoteLocked(&a, t))
	case *wire.EpochChangeReq:
		a.reply(reply, h.epochChangeLocked(&a, t))
	case *wire.HandoffStartReq:
		h.handoffStartLocked(&a, t, reply)
	case *wire.HandoffReq:
		h.handoffRecvLocked(&a, t, reply)
	case *wire.WaitEdgeUpdate:
		a.reply(reply, h.waitEdgesLocked(&a, from, t))
	case *wire.AbortFamilyReq:
		h.abortFamilyLocked(&a, t.Family)
		a.reply(reply, &wire.AbortFamilyResp{})
	default:
		a.reply(reply, &wire.ErrResp{Msg: fmt.Sprintf("directory: host cannot serve %T", m)})
	}
	h.mu.Unlock()
	a.run(h)
}

// addressLocked returns the shard and epoch a client operation (acquire,
// release or registration) is addressed to. A request naming an object of
// another shard than the one it claims is addressed to no shard (-1), so the
// ownership rule answers it with a RouteResp before it touches a replica.
// Registration is epoch-free setup traffic, routed by ownership.
func (h *Host) addressLocked(m wire.Msg) (shard int, epoch uint64) {
	switch t := m.(type) {
	case *wire.AcquireReq:
		if h.place.ShardOf(t.Obj) != int(t.Shard) {
			return -1, t.Epoch
		}
		return int(t.Shard), t.Epoch
	case *wire.ReleaseReq:
		for _, rel := range t.Rels {
			if h.place.ShardOf(rel.Obj) != int(t.Shard) {
				return -1, t.Epoch
			}
		}
		return int(t.Shard), t.Epoch
	case *wire.RegisterReq:
		return h.place.ShardOf(t.Obj), h.cur.Epoch
	}
	return -1, h.cur.Epoch
}

// ownerLocked applies the ownership rule: this host processes (shard,
// epoch) iff the epochs match exactly and its own map names it primary.
func (h *Host) ownerLocked(shard int, epoch uint64) *replica {
	if shard < 0 || shard >= h.cur.NumShards() {
		return nil
	}
	if epoch != h.cur.Epoch || h.cur.Primary[shard] != h.self {
		return nil
	}
	rep := h.reps[shard]
	if rep == nil || !rep.primary {
		return nil
	}
	return rep
}

// clientOpLocked is the client-operation front door: ownership check,
// seal parking, then apply-and-enqueue.
func (h *Host) clientOpLocked(a *acts, from ids.NodeID, shard int, epoch uint64, m wire.Msg, reply func(wire.Msg)) {
	rep := h.ownerLocked(shard, epoch)
	if rep == nil {
		if h.rec != nil {
			h.rec.AddEpochReject()
		}
		a.reply(reply, &wire.RouteResp{Map: h.cur.Clone()})
		return
	}
	if rep.sealed {
		rep.parked = append(rep.parked, parkedOp{from: from, m: m, reply: reply})
		return
	}
	h.applyEnqueueLocked(a, rep, from, m, reply)
}

// replayParkedLocked re-dispatches operations parked during a seal through
// the normal front door. If the epoch moved while they waited (handoff
// completed), the ownership check answers each with a RouteResp and the
// client re-aims — parked work is replayed or redirected, never dropped.
func (h *Host) replayParkedLocked(a *acts, ops []parkedOp) {
	for _, p := range ops {
		shard, epoch := h.addressLocked(p.m)
		h.clientOpLocked(a, p.from, shard, epoch, p.m, p.reply)
	}
}

// applyEnqueueLocked applies a client op to the primary's directory,
// derives host-level deadlock decisions, and completes the op or appends it
// (plus any decision-only entries for sibling shards) to the shard logs.
// The op is built on the stack: only an op that joins a log is copied to
// the heap.
func (h *Host) applyEnqueueLocked(a *acts, rep *replica, from ids.NodeID, m wire.Msg, reply func(wire.Msg)) {
	op := repOp{client: from, msg: m, done: reply}
	extras, errResp := h.applyLocked(rep, &op)
	if errResp != nil {
		a.reply(reply, errResp)
		return
	}
	h.enqueueLocked(a, rep, &op)
	for s := 0; s < h.cur.NumShards(); s++ {
		if extra, ok := extras[s]; ok {
			h.enqueueLocked(a, h.reps[s], extra)
		}
	}
	h.markEdgesDirtyLocked(a)
}

// enqueueLocked assigns the op its log position. With no live backup and
// nothing queued ahead of it there is nothing to replicate and nothing to
// wait for, so the op completes in place and no log entry is kept.
// Otherwise a copy of it joins the shard's log, encoded for the backup, and
// the pipeline is pumped.
func (h *Host) enqueueLocked(a *acts, rep *replica, op *repOp) {
	rep.seq++
	op.seq = rep.seq
	if rep.primary && !rep.inflight && len(rep.queue) == 0 && !h.backedLocked(rep) {
		h.completeLocked(a, op)
		h.maybeShipLocked(a, rep)
		return
	}
	entry := *op
	if entry.msg != nil {
		entry.opBytes = wire.Encode(wire.Envelope{From: entry.client, To: h.self}, entry.msg)
	}
	if entry.reply != nil {
		entry.replyBytes = wire.Encode(wire.Envelope{From: h.self, To: entry.client}, entry.reply)
	}
	rep.queue = append(rep.queue, &entry)
	h.pumpLocked(a, rep)
}

// backedLocked reports whether a primary shard has a live backup to
// replicate to.
func (h *Host) backedLocked(rep *replica) bool {
	backup := h.cur.Backup[rep.shard]
	return backup != ids.NoNode && backup != h.self && !rep.backupDown
}

// applyLocked executes op's client message against rep's directory. It
// fills in the reply, the events and the trigger shard's share of any
// host-level deadlock decision, and returns decision-only entries for the
// *other* primary shards such a decision touched (keyed by shard).
func (h *Host) applyLocked(rep *replica, op *repOp) (map[int]*repOp, wire.Msg) {
	var extras map[int]*repOp
	switch t := op.msg.(type) {
	case *wire.AcquireReq:
		resp, events, err := ServeAcquire(rep.dir, t)
		if err != nil {
			return nil, &wire.ErrResp{Msg: err.Error()}
		}
		op.events = stamp(rep.shard, events)
		if resp.Status == gdo.Queued {
			var buf [8]*gdo.Directory
			if victim, found := findVictimFrom(&h.graph, h.primaryDirsLocked(buf[:0]), t.Family); found {
				extras = h.victimIntoLocked(rep, op, nil, victim, victim == t.Family)
				if victim == t.Family {
					resp = &wire.AcquireResp{Obj: t.Obj, Status: gdo.DeadlockAbort, Shard: t.Shard}
				}
			}
		}
		if t.Adopt && resp.Status != gdo.NotAdopted {
			// Renaming a site hold to a family that waits on another shard
			// can close a cycle across shards whether or not this request
			// parked, so sweep as after a release.
			extras = h.sweepIntoLocked(rep, op, extras)
		}
		op.reply = resp
	case *wire.ReleaseReq:
		resp, events, err := ServeRelease(rep.dir, t)
		if err != nil {
			return nil, &wire.ErrResp{Msg: err.Error()}
		}
		op.events = stamp(rep.shard, events)
		extras = h.sweepIntoLocked(rep, op, nil)
		op.reply = resp
	case *wire.RegisterReq:
		// Registration is one-way: the op has no reply.
		if err := rep.dir.Register(t.Obj, int(t.NumPages), t.Owner); err != nil {
			return nil, &wire.ErrResp{Msg: err.Error()}
		}
	default:
		return nil, &wire.ErrResp{Msg: fmt.Sprintf("directory: %T is not a shard op", op.msg)}
	}
	return extras, nil
}

// copySetLocked serves the read-only batched copy-set lookup across this
// host's primary shards. Reads replicate nothing.
func (h *Host) copySetLocked(t *wire.CopySetReq) wire.Msg {
	sets := make([]wire.CopySet, 0, len(t.Objs))
	for _, obj := range t.Objs {
		rep := h.reps[h.place.ShardOf(obj)]
		if rep == nil || !rep.primary {
			return &wire.RouteResp{Map: h.cur.Clone()}
		}
		sites, err := rep.dir.CopySet(obj)
		if err != nil {
			return &wire.ErrResp{Msg: err.Error()}
		}
		sets = append(sets, wire.CopySet{Obj: obj, Sites: sites})
	}
	return &wire.CopySetResp{Sets: sets}
}

// pumpLocked advances a primary shard's replication pipeline: complete
// ops directly when there is no live backup, otherwise keep exactly one
// ReplicateReq in flight, FIFO.
func (h *Host) pumpLocked(a *acts, rep *replica) {
	if !rep.primary || rep.inflight {
		return
	}
	for len(rep.queue) > 0 {
		op := rep.queue[0]
		if !h.backedLocked(rep) {
			rep.queue = rep.queue[1:]
			h.completeLocked(a, op)
			continue
		}
		backup := h.cur.Backup[rep.shard]
		rep.inflight = true
		h.reqCtr++
		req := &wire.ReplicateReq{
			ReqID:  h.reqCtr,
			Shard:  int32(rep.shard),
			Epoch:  h.cur.Epoch,
			Seq:    op.seq,
			Client: op.client,
			Op:     op.opBytes,
			Reply:  op.replyBytes,
			Purges: op.purges,
			Aborts: op.aborts,
			Map:    h.cur.Clone(),
		}
		shard := rep.shard
		a.proc(func() {
			resp, err := h.env.Call(backup, req)
			h.onReplicated(shard, op, resp, err)
		})
		return
	}
	h.maybeShipLocked(a, rep)
}

// completeLocked finishes an acknowledged (or unreplicated) op: events
// first, then the withheld client reply, if the op has one.
func (h *Host) completeLocked(a *acts, op *repOp) {
	a.events(op.events)
	if op.reply != nil {
		a.reply(op.done, op.reply)
	}
}

// onReplicated is the continuation of one ReplicateReq.
func (h *Host) onReplicated(shard int, op *repOp, resp wire.Msg, err error) {
	var a acts
	h.mu.Lock()
	rep := h.reps[shard]
	if rep == nil || !rep.primary || !rep.inflight {
		h.mu.Unlock()
		return
	}
	rep.inflight = false
	rr, isRR := resp.(*wire.ReplicateResp)
	switch {
	case err != nil || !isRR:
		// Backup unreachable (or incoherent): declare it down for this
		// shard and continue unreplicated. Single-failure budget spent.
		rep.backupDown = true
	case !rr.OK:
		// The backup owns a newer view: adopt it. If it deposes us the
		// adoption reconciliation redirects every queued and parked op.
		h.adoptLocked(&a, rr.Map)
		if h.reps[shard] != rep || !rep.primary {
			h.mu.Unlock()
			a.run(h)
			return
		}
		// Still primary under the newer epoch (an unrelated shard moved):
		// the pump below resends with the new stamp.
	default:
		rep.queue = rep.queue[1:]
		h.completeLocked(&a, op)
	}
	h.pumpLocked(&a, rep)
	h.mu.Unlock()
	a.run(h)
}

// replicateLocked applies one log entry at the backup. The backup runs
// the op through its own directory (deterministically reproducing the
// primary's state transition), applies the shipped host-level decisions,
// primes its idempotency cache with the primary's exact reply, and keeps
// the op's events for replay on promotion.
func (h *Host) replicateLocked(a *acts, t *wire.ReplicateReq) wire.Msg {
	shard := int(t.Shard)
	if t.Epoch > h.cur.Epoch {
		// The primary moved ahead — a promotion on another host bumps the
		// epoch with no witness round, so this request may be the first
		// carrier of the new map. Adopt it and reconcile; refusing with our
		// older map could never advance the primary and the pair would
		// resend/refuse forever.
		h.adoptLocked(a, t.Map)
	}
	if t.Epoch < h.cur.Epoch {
		// Stale primary (we promoted or ratified past it): refuse with
		// the newer map so it deposes itself.
		return &wire.ReplicateResp{OK: false, Map: h.cur.Clone()}
	}
	rep := h.reps[shard]
	if rep == nil || rep.primary || h.cur.Backup[shard] != h.self {
		return &wire.ReplicateResp{OK: false, Map: h.cur.Clone()}
	}
	if t.Seq <= rep.seq {
		// Duplicate of an already-applied entry.
		return &wire.ReplicateResp{OK: true, Map: h.cur.Clone()}
	}
	if t.Seq != rep.seq+1 {
		return &wire.ReplicateResp{OK: false, Map: h.cur.Clone()}
	}

	var events []gdo.Event
	if len(t.Op) > 0 {
		_, m, err := wire.Decode(t.Op)
		if err != nil {
			return &wire.ErrResp{Msg: "directory: undecodable replicated op: " + err.Error()}
		}
		events = h.applyBackupOp(rep, m)
		if im, ok := m.(wire.Idempotent); ok && len(t.Reply) > 0 {
			if _, reply, err := wire.Decode(t.Reply); err == nil {
				h.dedup.Prime(t.Client, im.RequestID(), reply)
			}
		}
	}
	for _, f := range t.Purges {
		rep.dir.PurgeFamily(f)
	}
	for _, f := range t.Aborts {
		events = append(events, stamp(shard, rep.dir.AbortVictim(f))...)
	}
	rep.seq = t.Seq
	rep.lastEvents = events
	return &wire.ReplicateResp{OK: true, Map: h.cur.Clone()}
}

// applyBackupOp replays one client op against a backup replica's
// directory. The primary already validated it, so errors reduce to
// no-ops; the returned events are retained for promotion replay only.
func (h *Host) applyBackupOp(rep *replica, m wire.Msg) []gdo.Event {
	switch t := m.(type) {
	case *wire.AcquireReq:
		_, events, _ := ServeAcquire(rep.dir, t)
		return stamp(rep.shard, events)
	case *wire.ReleaseReq:
		_, events, _ := ServeRelease(rep.dir, t)
		return stamp(rep.shard, events)
	case *wire.RegisterReq:
		_ = rep.dir.Register(t.Obj, int(t.NumPages), t.Owner)
	}
	return nil
}

// promoteLocked executes client-driven failover: if the reportedly dead
// node is the primary of shards this host backs, promote every such shard
// in one epoch bump, replay the last applied events (closing the
// acked-but-unnotified window; receivers tolerate duplicates), and answer
// with the new map. Already-promoted (or mistaken) requests just get the
// current map — promotion is idempotent at the state level.
func (h *Host) promoteLocked(a *acts, t *wire.PromoteReq) wire.Msg {
	next := h.cur.Clone()
	promoted := false
	for s := range next.Primary {
		if next.Primary[s] != t.Dead || next.Backup[s] != h.self {
			continue
		}
		rep := h.reps[s]
		if rep == nil || rep.primary {
			continue
		}
		next.Primary[s] = h.self
		next.Backup[s] = ids.NoNode
		promoted = true
	}
	if !promoted {
		return &wire.PromoteResp{Map: h.cur.Clone()}
	}
	next.Epoch = h.cur.Epoch + 1
	h.cur = next
	for s := 0; s < h.cur.NumShards(); s++ {
		rep := h.reps[s]
		if rep == nil || h.cur.Primary[s] != h.self || rep.primary {
			continue
		}
		rep.primary = true
		// The dead primary may also have queued a request behind a site
		// hold without its recall ever leaving. Every site hold with
		// waiters is recalled again — once: the last op's own recall is
		// among them.
		var replay []gdo.Event
		for _, ev := range rep.lastEvents {
			if ev.Kind != gdo.EventRecall {
				replay = append(replay, ev)
			}
		}
		a.events(append(replay, stamp(s, rep.dir.PendingRecalls())...))
		rep.lastEvents = nil
	}
	if h.rec != nil {
		h.rec.AddPromotion()
	}
	h.markEdgesDirtyLocked(a)
	return &wire.PromoteResp{Map: h.cur.Clone()}
}

// epochChangeLocked is the witness rule serializing handoff map changes:
// accept a proposal exactly one epoch ahead (first proposal wins), accept
// an identical map idempotently, refuse everything else with the current
// map.
func (h *Host) epochChangeLocked(a *acts, t *wire.EpochChangeReq) wire.Msg {
	if t.Map.Equal(h.cur) {
		return &wire.EpochChangeResp{OK: true, Map: h.cur.Clone()}
	}
	if t.Map.Epoch == h.cur.Epoch+1 {
		h.adoptLocked(a, t.Map)
		h.markEdgesDirtyLocked(a)
		return &wire.EpochChangeResp{OK: true, Map: h.cur.Clone()}
	}
	return &wire.EpochChangeResp{OK: false, Map: h.cur.Clone()}
}

// adoptLocked installs a strictly newer map and reconciles local roles:
// a replica this host no longer serves under the new map is discarded,
// with every queued and parked operation redirected via RouteResp (the
// clients re-aim; nothing is dropped).
func (h *Host) adoptLocked(a *acts, m wire.PlacementMap) {
	if m.Epoch <= h.cur.Epoch {
		return
	}
	h.cur = m.Clone()
	for s := 0; s < h.cur.NumShards(); s++ {
		rep := h.reps[s]
		if rep == nil {
			continue
		}
		if rep.primary && h.cur.Primary[s] != h.self {
			h.deposeLocked(a, rep)
		} else if !rep.primary && h.cur.Backup[s] != h.self && h.cur.Primary[s] != h.self {
			delete(h.reps, s)
		}
	}
}

// deposeLocked retires a primary replica after losing ownership.
func (h *Host) deposeLocked(a *acts, rep *replica) {
	redirect := &wire.RouteResp{Map: h.cur.Clone()}
	for _, op := range rep.queue {
		a.reply(op.done, redirect)
	}
	for _, p := range rep.parked {
		a.reply(p.reply, redirect)
	}
	if ho := rep.handoff; ho != nil {
		if ho.shipped && h.cur.Primary[rep.shard] == ho.target {
			// Our own proposal won: the ratified map reached us through a
			// side channel (e.g. a ReplicateResp for a sibling shard)
			// before the target's ack did. This depose IS the handoff
			// completing — report it as the success it is.
			if h.rec != nil {
				h.rec.AddHandoff(stats.HandoffSample{
					Shard: rep.shard, Bytes: ho.stateBytes, Latency: h.env.Now() - ho.start,
				})
			}
			a.reply(ho.done, &wire.HandoffStartResp{
				OK: true, StateBytes: uint64(ho.stateBytes), Map: h.cur.Clone(),
			})
		} else {
			a.reply(ho.done, &wire.HandoffStartResp{OK: false, Map: h.cur.Clone()})
		}
	}
	delete(h.reps, rep.shard)
}
