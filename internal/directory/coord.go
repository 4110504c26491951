// Deadlock detection for the replicated control plane, in two tiers. Both
// run the one waits-for search (gdo.WaitGraph) over a graph the host keeps
// under h.mu.
//
// Tier 1 — host-local union: a host serving several primary shards
// searches the union of their waits-for graphs (detect.go). When an
// acquire parks or a release re-points grants, it appends its own shards'
// waits-for edges into its graph and aborts the youngest family on any
// cycle reachable from the trigger.
// Decisions are replicated: the triggering shard's purge/abort rides the
// client op's log entry, sibling shards get decision-only entries.
//
// Tier 2 — cross-host coordination: when primaries span hosts (spread
// placement, or after a handoff), cycles can straddle hosts. Every
// non-coordinator host pushes its local edge summary — its sorted union
// graph — to the coordinator, the shard-0 primary, a role that travels
// with the map, whenever the summary changes, coalesced (one in-flight
// push, content-compared) and version-stamped so reordered pushes cannot
// regress the view. The coordinator appends the stored summaries to its own
// live edges, aborts the youngest family per cycle, prunes the victim from
// its stored copies, and fans AbortFamilyReq out to every other primary
// host. A stable cycle is eventually fully visible (the last host to change
// re-pushes its whole summary), and a phantom cycle assembled from stale
// summaries costs one safe extra abort — the victim retries, exactly like a
// real victim.

package directory

import (
	"slices"
	"time"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/wire"
)

// forEachPrimaryLocked visits this host's primary replicas in ascending
// shard order (determinism: replication and event order must not depend
// on map iteration).
func (h *Host) forEachPrimaryLocked(fn func(s int, rep *replica)) {
	for s := 0; s < h.cur.NumShards(); s++ {
		rep := h.reps[s]
		if rep != nil && rep.primary {
			fn(s, rep)
		}
	}
}

// mutableLocked reports whether a primary replica's directory may still
// be mutated: once its handoff snapshot has shipped, the state is frozen
// (the target imported those exact bytes). A victim whose waits survive
// on a frozen shard is re-detected against the new owner.
func mutableLocked(rep *replica) bool {
	return rep.handoff == nil || !rep.handoff.shipped
}

// primaryDirsLocked appends the directories of this host's primary replicas
// to dst in shard order: the list the host-local tier searches (detect.go).
// Callers pass a small stack array, so the search allocates nothing when no
// shard has waiters.
func (h *Host) primaryDirsLocked(dst []*gdo.Directory) []*gdo.Directory {
	for s := 0; s < h.cur.NumShards(); s++ {
		if rep := h.reps[s]; rep != nil && rep.primary {
			dst = append(dst, rep.dir)
		}
	}
	return dst
}

// victimIntoLocked executes one deadlock decision across this host's
// primary shards. The trigger shard's share of the decision is folded into
// the client op's log entry; every other shard gets (or extends) a
// decision-only entry in extras, which may be nil. self selects the
// silent-purge path (the synchronous DeadlockAbort reply is the victim's
// notification).
func (h *Host) victimIntoLocked(rep *replica, op *repOp, extras map[int]*repOp, victim ids.FamilyID, self bool) map[int]*repOp {
	extend := func(s int) *repOp {
		if extras == nil {
			extras = make(map[int]*repOp)
		}
		if extras[s] == nil {
			extras[s] = &repOp{}
		}
		return extras[s]
	}
	h.forEachPrimaryLocked(func(s int, r *replica) {
		if !mutableLocked(r) {
			return
		}
		if self {
			r.dir.PurgeFamily(victim)
			if r == rep {
				op.purges = append(op.purges, victim)
			} else {
				e := extend(s)
				e.purges = append(e.purges, victim)
			}
			return
		}
		evs := stamp(s, r.dir.AbortVictim(victim))
		if r == rep {
			op.aborts = append(op.aborts, victim)
			op.events = append(op.events, evs...)
		} else if len(evs) > 0 {
			e := extend(s)
			e.aborts = append(e.aborts, victim)
			e.events = append(e.events, evs...)
		}
	})
	return extras
}

// sweepIntoLocked repeatedly searches the host-local union graph after a
// release or an adoption and aborts the youngest family of each cycle until
// acyclic (re-pointing waiters at a new holder can close cycles no single
// shard sees). The decisions extend extras, which may be nil.
func (h *Host) sweepIntoLocked(rep *replica, op *repOp, extras map[int]*repOp) map[int]*repOp {
	var buf [8]*gdo.Directory
	sweep(&h.graph, h.primaryDirsLocked(buf[:0]), func(victim ids.FamilyID) {
		extras = h.victimIntoLocked(rep, op, extras, victim, false)
	})
	return extras
}

// coordinatorLocked returns the cross-host detection coordinator: the
// shard-0 primary of the host's current map. The role travels with the
// map, so promotion or handoff of shard 0 moves it.
func (h *Host) coordinatorLocked() ids.NodeID {
	if h.cur.NumShards() == 0 {
		return ids.NoNode
	}
	return h.cur.Primary[0]
}

// multiHostLocked reports whether primaries span more than one host.
func (h *Host) multiHostLocked() bool {
	if h.cur.NumShards() == 0 {
		return false
	}
	first := h.cur.Primary[0]
	for _, p := range h.cur.Primary[1:] {
		if p != first {
			return true
		}
	}
	return false
}

// markEdgesDirtyLocked notes that this host's waits-for summary may have
// changed. The coordinator re-detects locally; other hosts schedule a
// coalesced push.
func (h *Host) markEdgesDirtyLocked(a *acts) {
	if h.coordinatorLocked() == h.self {
		if len(h.peers) > 0 {
			h.detectLocked(a)
		}
		return
	}
	if !h.multiHostLocked() {
		return
	}
	h.edgeDirty = true
	if h.edgeSending {
		return
	}
	h.edgeSending = true
	a.proc(h.edgeSender)
}

// edgeSender is the coalescing push proc: while the summary stays dirty
// and actually different from the last acknowledged push, send it to the
// coordinator. At most one instance runs per host.
func (h *Host) edgeSender() {
	for {
		h.mu.Lock()
		if !h.edgeDirty {
			h.edgeSending = false
			h.mu.Unlock()
			return
		}
		h.edgeDirty = false
		var buf [8]*gdo.Directory
		unionInto(&h.graph, h.primaryDirsLocked(buf[:0]))
		h.graph.Sort()
		if slices.Equal(h.graph.Edges, h.lastEdges) && slices.Equal(h.graph.Ages, h.lastAges) {
			h.mu.Unlock()
			continue
		}
		coord := h.coordinatorLocked()
		if coord == h.self || coord == ids.NoNode {
			h.edgeSending = false
			h.mu.Unlock()
			return
		}
		h.edgeVer++
		edges, ages := slices.Clone(h.graph.Edges), slices.Clone(h.graph.Ages)
		req := &wire.WaitEdgeUpdate{Ver: h.edgeVer, Epoch: h.cur.Epoch, Edges: edges, Ages: ages}
		h.mu.Unlock()

		resp, err := h.env.Call(coord, req)
		if err != nil {
			// Coordinator unreachable; it will move with the map (shard-0
			// promotion) — retry after a beat.
			h.mu.Lock()
			h.edgeDirty = true
			h.mu.Unlock()
			h.env.Sleep(time.Millisecond)
			continue
		}
		if wr, ok := resp.(*wire.WaitEdgeResp); ok {
			h.adopt(wr.Map)
		}
		h.mu.Lock()
		h.lastEdges, h.lastAges = edges, ages
		h.mu.Unlock()
	}
}

// adopt is adoptLocked callable from proc context.
func (h *Host) adopt(m wire.PlacementMap) {
	var a acts
	h.mu.Lock()
	h.adoptLocked(&a, m)
	h.mu.Unlock()
	a.run(h)
}

// waitEdgesLocked is the coordinator's ingest: store the freshest summary
// per sender and re-detect. A host that is no longer the coordinator just
// answers with its map so the sender re-aims.
func (h *Host) waitEdgesLocked(a *acts, from ids.NodeID, t *wire.WaitEdgeUpdate) wire.Msg {
	if h.coordinatorLocked() != h.self {
		return &wire.WaitEdgeResp{Map: h.cur.Clone()}
	}
	if p := h.peers[from]; t.Ver > p.ver {
		h.peers[from] = peerSummary{ver: t.Ver, edges: t.Edges, ages: t.Ages}
		h.detectLocked(a)
	}
	return &wire.WaitEdgeResp{Map: h.cur.Clone()}
}

// detectLocked runs coordinator detection over this host's live edges and
// every stored peer summary, aborting the youngest family per cycle until
// the combined graph is acyclic. The host's own ages come first, then the
// peers' in ascending node order, so its own win where they differ.
func (h *Host) detectLocked(a *acts) {
	peerIDs := make([]ids.NodeID, 0, len(h.peers))
	for id := range h.peers {
		peerIDs = append(peerIDs, id)
	}
	slices.Sort(peerIDs)
	var buf [8]*gdo.Directory
	for {
		unionInto(&h.graph, h.primaryDirsLocked(buf[:0]))
		for _, id := range peerIDs {
			p := h.peers[id]
			h.graph.Edges = append(h.graph.Edges, p.edges...)
			h.graph.Ages = append(h.graph.Ages, p.ages...)
		}
		h.graph.Sort()
		victim, ok := h.graph.Victim()
		if !ok {
			return
		}
		h.abortFamilyLocked(a, victim)
		h.prunePeerFamilyLocked(victim)
		h.fanoutAbortLocked(a, victim)
	}
}

// abortFamilyLocked applies a coordinator-decided (or fanned-out) abort
// across this host's primary shards, replicating each shard's share as a
// decision-only log entry. Aborting a family that is not waiting here is
// a no-op — phantom decisions are safe.
func (h *Host) abortFamilyLocked(a *acts, victim ids.FamilyID) {
	h.forEachPrimaryLocked(func(s int, rep *replica) {
		if !mutableLocked(rep) {
			return
		}
		evs := stamp(s, rep.dir.AbortVictim(victim))
		if len(evs) == 0 {
			return
		}
		h.enqueueLocked(a, rep, &repOp{
			aborts: []ids.FamilyID{victim},
			events: evs,
		})
	})
}

// prunePeerFamilyLocked removes a decided victim from the stored peer
// summaries so the detection loop converges without waiting for the
// owners' next pushes.
func (h *Host) prunePeerFamilyLocked(victim ids.FamilyID) {
	for id, p := range h.peers {
		edges := p.edges[:0:0]
		for _, e := range p.edges {
			if e.From != victim && e.To != victim {
				edges = append(edges, e)
			}
		}
		ages := p.ages[:0:0]
		for _, fa := range p.ages {
			if fa.Family != victim {
				ages = append(ages, fa)
			}
		}
		h.peers[id] = peerSummary{ver: p.ver, edges: edges, ages: ages}
	}
}

// fanoutAbortLocked ships the coordinator's decision to every other host
// currently owning primary shards. Delivery is best-effort: a lost abort
// re-surfaces as a still-standing cycle on the next summary push.
func (h *Host) fanoutAbortLocked(a *acts, victim ids.FamilyID) {
	seen := map[ids.NodeID]bool{h.self: true}
	targets := make([]ids.NodeID, 0, 4)
	for _, p := range h.cur.Primary {
		if p != ids.NoNode && !seen[p] {
			seen[p] = true
			targets = append(targets, p)
		}
	}
	epoch := h.cur.Epoch
	for _, target := range targets {
		target := target
		a.proc(func() {
			_, _ = h.env.Call(target, &wire.AbortFamilyReq{Family: victim, Epoch: epoch})
		})
	}
}
