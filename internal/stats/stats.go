// Package stats records the message trace a protocol run generates and
// aggregates it the way the paper's evaluation reports it: bytes transferred
// per shared object (Figures 2–5), message counts, local-vs-global lock
// operation counts (§5.1), and total per-object message time under a given
// network model (Figures 6–8).
//
// Recording the full trace once and re-pricing it under the fifteen
// bandwidth × software-cost combinations reproduces Figures 6–8 without
// re-running the workload (see EXPERIMENTS.md for the fidelity note).
package stats

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lotec/internal/ids"
	"lotec/internal/netmodel"
)

// MsgKind classifies a recorded message.
type MsgKind int

// Message kinds.
const (
	KindLockReq   MsgKind = iota + 1 // global acquire request → GDO
	KindLockReply                    // GDO reply (grant/queued + page map)
	KindGrant                        // deferred grant GDO → site
	KindRelease                      // global release → GDO (dirty info piggybacked)
	KindReleaseReply
	_             // 6–8 were the single-object fetch, fetch reply and RC push,
	_             // retired for their Multi* forms; the numbers are not reused
	_             // so that the later kinds keep theirs
	KindPushReply // RC push acknowledgement
	KindAbort     // deadlock-abort notification
	KindRegister  // object registration → GDO (server mode)
	_             // 12 was the registration reply; registration is one-way
	KindRun       // remote transaction-body dispatch
	KindRunReply  // remote transaction-body completion
	KindError     // protocol-level error reply
	KindOther
	KindMultiFetchReq // batched cross-object page fetch request (xfer gather)
	KindMultiPageData // batched cross-object page payload reply
	KindMultiPush     // batched cross-object RC eager update push

	// Control-plane replication kinds (replicated directory shards).
	KindReplicate      // primary → backup shard-op chaining
	KindReplicateReply // backup acknowledgement
	KindPromote        // client-driven backup promotion request
	KindPromoteReply
	KindEpoch      // epoch-change proposal to a witness
	KindEpochReply // epoch-change verdict / stale-epoch redirect (RouteResp)
	KindHandoff    // shard handoff control + state shipment
	KindHandoffReply
	KindDetect // cross-host deadlock detection (edges push, victim fan-out)
	KindDetectReply
	// Retired: the committing release is the commit point, so no message
	// classifies to these two any more. They keep their numbers because
	// benchmark/ still names them in its control-kind table.
	KindCommitSeq
	KindCommitSeqReply
	KindRecall // directory → site: hand a site-retained grant back
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case KindLockReq:
		return "lock-req"
	case KindLockReply:
		return "lock-reply"
	case KindGrant:
		return "grant"
	case KindRelease:
		return "release"
	case KindReleaseReply:
		return "release-reply"
	case KindPushReply:
		return "push-reply"
	case KindAbort:
		return "abort"
	case KindRegister:
		return "register"
	case KindRun:
		return "run"
	case KindRunReply:
		return "run-reply"
	case KindError:
		return "error"
	case KindMultiFetchReq:
		return "multi-fetch-req"
	case KindMultiPageData:
		return "multi-page-data"
	case KindMultiPush:
		return "multi-push"
	case KindReplicate:
		return "replicate"
	case KindReplicateReply:
		return "replicate-reply"
	case KindPromote:
		return "promote"
	case KindPromoteReply:
		return "promote-reply"
	case KindEpoch:
		return "epoch"
	case KindEpochReply:
		return "epoch-reply"
	case KindHandoff:
		return "handoff"
	case KindHandoffReply:
		return "handoff-reply"
	case KindDetect:
		return "detect"
	case KindDetectReply:
		return "detect-reply"
	case KindCommitSeq:
		return "commit-seq"
	case KindCommitSeqReply:
		return "commit-seq-reply"
	case KindRecall:
		return "recall"
	default:
		return "other"
	}
}

// IsData reports whether the kind carries page payloads (consistency data)
// as opposed to control information.
func (k MsgKind) IsData() bool {
	return k == KindMultiPageData || k == KindMultiPush
}

// MsgRecord is one message of the trace. Obj attributes the message to the
// shared object whose consistency it maintains; NoObject (-1) marks
// messages that serve several objects at once (batched root-commit
// releases), whose cost is attributed to each object in Objs.
type MsgRecord struct {
	From ids.NodeID
	To   ids.NodeID
	Obj  ids.ObjectID
	Objs []ids.ObjectID // set when one message serves several objects
	// Payloads holds the per-object page-payload bytes parallel to Objs for
	// batched data messages, so per-object byte counts stay exact when one
	// message carries pages of several objects. Nil for control messages.
	Payloads []int
	// Overheads holds the per-object framing bytes parallel to Objs: the
	// non-payload bytes of each object's section within a batched message
	// (page numbers, versions, delta run lists, length prefixes). When set,
	// per-object attribution charges each object its exact section framing
	// and divides only the residual shared bytes (envelope, top-level
	// fields) evenly; when nil, all non-payload bytes divide evenly — the
	// historical approximation, exact only while every section framed
	// identically (delta runs made section framing vary).
	Overheads []int
	Kind      MsgKind
	// Bytes is the full on-wire message size (headers included).
	Bytes int
	// Payload is the page-data portion of Bytes (0 for control messages).
	// The paper's "bytes transferred to maintain consistency" counts
	// payload; Bytes-Payload is messaging overhead.
	Payload int
	// Shard is the directory partition a lock-service message was
	// addressed to; NoShard (-1) marks messages that do not involve the
	// directory (page fetches, pushes, transaction control).
	Shard int
}

// NoObject marks a record without a single-object attribution.
const NoObject ids.ObjectID = -1

// NoShard marks a record with no directory-shard attribution.
const NoShard = -1

// ObjStats aggregates the trace for one object.
type ObjStats struct {
	Msgs int
	// ControlBytes is message bytes that are not page payload (headers,
	// lock traffic, page maps).
	ControlBytes int64
	// DataBytes is page payload (the paper's per-object byte counts).
	DataBytes int64
}

// TotalBytes returns control + data bytes.
func (s ObjStats) TotalBytes() int64 { return s.ControlBytes + s.DataBytes }

// Recorder accumulates a run's trace and counters. It is safe for
// concurrent use. The scalar counters are atomics; only the trace itself
// needs the mutex.
type Recorder struct {
	mu        sync.Mutex
	msgs      []MsgRecord      // guarded by mu
	transfers []TransferSample // guarded by mu
	failovers []FailoverSample // guarded by mu
	handoffs  []HandoffSample  // guarded by mu

	localLockOps  atomic.Int64
	globalLockOps atomic.Int64
	demandFetches atomic.Int64
	aborts        atomic.Int64
	retries       atomic.Int64
	commits       atomic.Int64

	msgDrops     atomic.Int64
	msgDups      atomic.Int64
	msgDelays    atomic.Int64
	callTimeouts atomic.Int64
	callRetries  atomic.Int64

	fullPageBytes   atomic.Int64
	deltaBytes      atomic.Int64
	deltaSavedBytes atomic.Int64
	deltaFallbacks  atomic.Int64

	epochRejects atomic.Int64
	promotions   atomic.Int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// Record appends one message record.
func (r *Recorder) Record(rec MsgRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs = append(r.msgs, rec)
}

// Counter bumps. Each corresponds to one §5/§5.1 metric.

// AddLocalLockOp counts a lock operation satisfied from the locally cached
// GDO information (no directory involvement).
func (r *Recorder) AddLocalLockOp() { r.localLockOps.Add(1) }

// AddGlobalLockOp counts a lock operation that had to consult the GDO.
func (r *Recorder) AddGlobalLockOp() { r.globalLockOps.Add(1) }

// AddDemandFetch counts a page fetched on demand after a LOTEC
// misprediction.
func (r *Recorder) AddDemandFetch() { r.demandFetches.Add(1) }

// AddAbort counts a root-transaction abort (deadlock victim or user abort).
func (r *Recorder) AddAbort() { r.aborts.Add(1) }

// AddRetry counts a root-transaction retry after an abort.
func (r *Recorder) AddRetry() { r.retries.Add(1) }

// AddCommit counts a root-transaction commit.
func (r *Recorder) AddCommit() { r.commits.Add(1) }

// Fault-layer counters (internal/fault + the transports' retry loops).

// AddMsgDrop counts a message the fault injector discarded in flight.
func (r *Recorder) AddMsgDrop() { r.msgDrops.Add(1) }

// AddMsgDup counts an extra in-flight copy the fault injector emitted.
func (r *Recorder) AddMsgDup() { r.msgDups.Add(1) }

// AddMsgDelay counts a message the fault injector held back (delay or
// reorder).
func (r *Recorder) AddMsgDelay() { r.msgDelays.Add(1) }

// AddCallTimeout counts an RPC attempt that expired without a reply.
func (r *Recorder) AddCallTimeout() { r.callTimeouts.Add(1) }

// AddCallRetry counts an RPC retransmission after a timeout.
func (r *Recorder) AddCallRetry() { r.callRetries.Add(1) }

// Delta-transfer counters (the sub-page data plane).

// AddFullPage counts a page served as a full payload of n bytes.
func (r *Recorder) AddFullPage(n int) { r.fullPageBytes.Add(int64(n)) }

// AddDelta counts a page served as a delta: encoded delta payload bytes and
// the bytes saved versus the full page it replaced.
func (r *Recorder) AddDelta(encoded, saved int) {
	r.deltaBytes.Add(int64(encoded))
	r.deltaSavedBytes.Add(int64(saved))
}

// AddDeltaFallback counts a delta-eligible page (requester supplied a usable
// base version) that had to be served as a full page anyway — journal
// evicted, chain broken, or the encoded delta not smaller than the page.
func (r *Recorder) AddDeltaFallback() { r.deltaFallbacks.Add(1) }

// Counters is a snapshot of the scalar counters.
type Counters struct {
	LocalLockOps  int64
	GlobalLockOps int64
	DemandFetches int64
	Aborts        int64
	Retries       int64
	Commits       int64

	// Fault-layer metrics: injected message faults and the retry loop's
	// reaction to them. All zero on a fault-free run.
	MsgDrops     int64
	MsgDups      int64
	MsgDelays    int64
	CallTimeouts int64
	CallRetries  int64

	// Delta-transfer metrics: how the data plane split page traffic between
	// full payloads and dirty-range deltas. All deltas-related fields are
	// zero with delta transfers off.
	FullPageBytes   int64
	DeltaBytes      int64
	DeltaSavedBytes int64
	DeltaFallbacks  int64

	// Control-plane replication metrics: stale-epoch rejections and backup
	// promotions. Zero under a static (unreplicated) placement.
	EpochRejects int64
	Promotions   int64
}

// Counters returns a snapshot of the scalar counters.
func (r *Recorder) Counters() Counters {
	return Counters{
		LocalLockOps:  r.localLockOps.Load(),
		GlobalLockOps: r.globalLockOps.Load(),
		DemandFetches: r.demandFetches.Load(),
		Aborts:        r.aborts.Load(),
		Retries:       r.retries.Load(),
		Commits:       r.commits.Load(),
		MsgDrops:      r.msgDrops.Load(),
		MsgDups:       r.msgDups.Load(),
		MsgDelays:     r.msgDelays.Load(),
		CallTimeouts:  r.callTimeouts.Load(),
		CallRetries:   r.callRetries.Load(),

		FullPageBytes:   r.fullPageBytes.Load(),
		DeltaBytes:      r.deltaBytes.Load(),
		DeltaSavedBytes: r.deltaSavedBytes.Load(),
		DeltaFallbacks:  r.deltaFallbacks.Load(),

		EpochRejects: r.epochRejects.Load(),
		Promotions:   r.promotions.Load(),
	}
}

// MsgCount returns the number of recorded messages.
func (r *Recorder) MsgCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

// Trace returns a copy of the full message trace.
func (r *Recorder) Trace() []MsgRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]MsgRecord(nil), r.msgs...)
}

// forEachAttributionLocked calls fn once per (object, record) attribution.
// idx is the object's position in rec.Objs, or -1 for a single-object
// record. Caller holds r.mu.
func (r *Recorder) forEachAttributionLocked(fn func(obj ids.ObjectID, rec *MsgRecord, idx int)) {
	for i := range r.msgs {
		rec := &r.msgs[i]
		if rec.Obj != NoObject {
			fn(rec.Obj, rec, -1)
			continue
		}
		for j, o := range rec.Objs {
			fn(o, rec, j)
		}
	}
}

// ctrlShare computes object idx's control-byte share of a batched record.
// With Overheads set (parallel to Objs), each object is charged its exact
// section framing plus an even split of only the residual shared bytes
// (envelope + top-level fields); without, all non-payload bytes split evenly
// — the historical approximation, which delta-bearing messages outgrew
// because their per-object framing varies with the run lists.
func (rec *MsgRecord) ctrlShare(idx int) int64 {
	shared := rec.Bytes - rec.Payload
	if len(rec.Overheads) != len(rec.Objs) {
		return int64(shared / len(rec.Objs))
	}
	for _, o := range rec.Overheads {
		shared -= o
	}
	return int64(shared/len(rec.Objs) + rec.Overheads[idx])
}

// PerObject aggregates the trace per object. Multi-object control messages
// contribute their size to each named object's message count and control
// bytes (exact section framing when recorded, an even split otherwise);
// batched data messages attribute each object's exact payload
// (rec.Payloads).
func (r *Recorder) PerObject() map[ids.ObjectID]ObjStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[ids.ObjectID]ObjStats)
	for i := range r.msgs {
		rec := &r.msgs[i]
		if rec.Obj != NoObject {
			s := out[rec.Obj]
			s.Msgs++
			s.DataBytes += int64(rec.Payload)
			s.ControlBytes += int64(rec.Bytes - rec.Payload)
			out[rec.Obj] = s
			continue
		}
		if len(rec.Objs) == 0 {
			continue
		}
		for j, o := range rec.Objs {
			s := out[o]
			s.Msgs++
			s.ControlBytes += rec.ctrlShare(j)
			if j < len(rec.Payloads) {
				s.DataBytes += int64(rec.Payloads[j])
			}
			out[o] = s
		}
	}
	return out
}

// Object returns the aggregate for one object.
func (r *Recorder) Object(obj ids.ObjectID) ObjStats {
	return r.PerObject()[obj]
}

// Objects returns the objects with any attributed traffic, ascending.
func (r *Recorder) Objects() []ids.ObjectID {
	per := r.PerObject()
	out := make([]ids.ObjectID, 0, len(per))
	for o := range per {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Totals sums the whole trace.
func (r *Recorder) Totals() ObjStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s ObjStats
	for i := range r.msgs {
		rec := &r.msgs[i]
		s.Msgs++
		s.DataBytes += int64(rec.Payload)
		s.ControlBytes += int64(rec.Bytes - rec.Payload)
	}
	return s
}

// TransferTime prices every message attributed to obj under p and returns
// the total — the paper's "total message time required to maintain the
// consistency of an arbitrary shared object" (Figures 6–8).
func (r *Recorder) TransferTime(obj ids.ObjectID, p netmodel.Params) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total time.Duration
	r.forEachAttributionLocked(func(o ids.ObjectID, rec *MsgRecord, idx int) {
		if o != obj {
			return
		}
		b := rec.Bytes
		if rec.Obj == NoObject && len(rec.Objs) > 0 {
			b = int(rec.ctrlShare(idx))
			if idx >= 0 && idx < len(rec.Payloads) {
				b += rec.Payloads[idx]
			}
		}
		total += p.MsgTime(b)
	})
	return total
}

// TotalTime prices the entire trace under p.
func (r *Recorder) TotalTime(p netmodel.Params) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total time.Duration
	for i := range r.msgs {
		total += p.MsgTime(r.msgs[i].Bytes)
	}
	return total
}

// TransferKind names which xfer pipeline ran: a protocol/demand fetch
// (gather direction) or an RC update push (scatter direction).
type TransferKind int

// Transfer kinds.
const (
	TransferFetch TransferKind = iota + 1
	TransferPush
)

// String implements fmt.Stringer.
func (k TransferKind) String() string {
	switch k {
	case TransferFetch:
		return "fetch"
	case TransferPush:
		return "push"
	default:
		return "unknown"
	}
}

// TransferSample is one completed run of the xfer pipeline (Alg 4.5): a
// plan → batch → gather → apply pass moving pages for one transfer.
type TransferSample struct {
	Kind    TransferKind
	Batches int // per-site batched messages issued
	Pages   int // pages moved (full payloads and deltas)
	Bytes   int // page payload bytes moved (full pages + encoded deltas)
	// DeltaPages/DeltaBytes are the subset of Pages/Bytes that moved as
	// dirty-range deltas instead of full payloads.
	DeltaPages int
	DeltaBytes int
	// Per-stage wall-clock. Plan and Apply are sequential work; Gather is
	// the span of the fan-out's round trips, all in flight at once: on the
	// simulator, which issues them one after another, the slowest call's.
	Plan   time.Duration
	Gather time.Duration
	Apply  time.Duration
}

// TransferTotals aggregates transfer samples per pipeline stage.
type TransferTotals struct {
	Transfers  int
	Batches    int
	Pages      int
	Bytes      int64
	DeltaPages int
	DeltaBytes int64
	Plan       time.Duration
	Gather     time.Duration
	Apply      time.Duration
}

// AddTransfer records one completed xfer pipeline run.
func (r *Recorder) AddTransfer(s TransferSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.transfers = append(r.transfers, s)
}

// TransferStages sums the transfer samples of the given kind; pass 0 to sum
// every kind.
func (r *Recorder) TransferStages(kind TransferKind) TransferTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t TransferTotals
	for _, s := range r.transfers {
		if kind != 0 && s.Kind != kind {
			continue
		}
		t.Transfers++
		t.Batches += s.Batches
		t.Pages += s.Pages
		t.Bytes += int64(s.Bytes)
		t.DeltaPages += s.DeltaPages
		t.DeltaBytes += int64(s.DeltaBytes)
		t.Plan += s.Plan
		t.Gather += s.Gather
		t.Apply += s.Apply
	}
	return t
}
