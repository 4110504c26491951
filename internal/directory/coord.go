// Deadlock detection for the replicated control plane, in two tiers.
//
// Tier 1 — host-local union: a host serving several primary shards mirrors
// the in-process Sharded router exactly. When an acquire parks or a
// release re-points grants, it unions its own shards' waits-for summaries
// and aborts the youngest family on any cycle reachable from the trigger.
// Decisions are replicated: the triggering shard's purge/abort rides the
// client op's log entry, sibling shards get decision-only entries.
//
// Tier 2 — cross-host coordination: when primaries span hosts (spread
// placement, or after a handoff), cycles can straddle hosts. Every
// non-coordinator host pushes its local edge summary to the coordinator —
// the shard-0 primary, a role that travels with the map — whenever the
// summary changes, coalesced (one in-flight push, content-compared) and
// version-stamped so reordered pushes cannot regress the view. The
// coordinator unions the stored summaries with its own live edges, aborts
// the youngest family per cycle, prunes the victim from its stored copies,
// and fans AbortFamilyReq out to every other primary host. A stable cycle
// is eventually fully visible (the last host to change re-pushes its whole
// summary), and a phantom cycle assembled from stale summaries costs one
// safe extra abort — the victim retries, exactly like a real victim.

package directory

import (
	"sort"
	"time"

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

// crossPossibleLocked is the local-tier precheck: a cross-shard cycle
// needs waiting families in at least two of this host's primary shards.
func (h *Host) crossPossibleLocked() bool {
	withWaiters := 0
	h.forEachPrimaryLocked(func(_ int, rep *replica) {
		if rep.dir.HasWaiters() {
			withWaiters++
		}
	})
	return withWaiters >= 2
}

// unionWaitsLocked aggregates this host's primary shards' waits-for
// summaries (deterministically ordered).
func (h *Host) unionWaitsLocked() (map[ids.FamilyID][]ids.FamilyID, map[ids.FamilyID]uint64) {
	adj := make(map[ids.FamilyID][]ids.FamilyID)
	ages := make(map[ids.FamilyID]uint64)
	h.forEachPrimaryLocked(func(_ int, rep *replica) {
		edges, shardAges := rep.dir.WaitEdges()
		for _, e := range edges {
			adj[e.From] = append(adj[e.From], e.To)
		}
		for f, age := range shardAges {
			ages[f] = age
		}
	})
	sortAdj(adj)
	return adj, ages
}

func sortAdj(adj map[ids.FamilyID][]ids.FamilyID) {
	//lotec:unordered — per-key in-place sort; no cross-key state.
	for f := range adj {
		tos := adj[f]
		sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
	}
}

// findVictimLocked searches the host-local union graph for a cycle
// reachable from start (the parking family) and returns the youngest
// waiting family on it.
func (h *Host) findVictimLocked(start ids.FamilyID) (ids.FamilyID, bool) {
	if !h.crossPossibleLocked() {
		return 0, false
	}
	adj, ages := h.unionWaitsLocked()
	cycle := findCycleFrom(adj, start)
	if len(cycle) == 0 {
		return 0, false
	}
	return youngest(cycle, ages), true
}

// applyVictimLocked executes one deadlock decision across this host's
// primary shards. The trigger shard's share of the decision is folded
// into the client op's log entry; every other shard gets (or extends) a
// decision-only entry in extras. self selects the silent-purge path (the
// synchronous DeadlockAbort reply is the victim's notification).
func (h *Host) applyVictimLocked(rep *replica, op *repOp, victim ids.FamilyID, self bool) map[int]*repOp {
	return h.victimIntoLocked(rep, op, nil, victim, self)
}

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
	for {
		if !h.crossPossibleLocked() {
			return extras
		}
		adj, ages := h.unionWaitsLocked()
		cycle := firstCycle(adj)
		if len(cycle) == 0 {
			return extras
		}
		extras = h.victimIntoLocked(rep, op, extras, youngest(cycle, ages), false)
	}
}

// firstCycle scans the adjacency in deterministic start order and returns
// the first cycle found.
func firstCycle(adj map[ids.FamilyID][]ids.FamilyID) []ids.FamilyID {
	starts := make([]ids.FamilyID, 0, len(adj))
	for f := range adj {
		starts = append(starts, f)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, f := range starts {
		if cycle := findCycleFrom(adj, f); len(cycle) > 0 {
			return cycle
		}
	}
	return nil
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

// localSummaryLocked flattens the host-local union into wire form,
// deterministically sorted.
func (h *Host) localSummaryLocked() ([]wire.WaitEdge, []wire.FamilyAge) {
	var edges []wire.WaitEdge
	ageSet := make(map[ids.FamilyID]uint64)
	h.forEachPrimaryLocked(func(_ int, rep *replica) {
		es, shardAges := rep.dir.WaitEdges()
		for _, e := range es {
			edges = append(edges, wire.WaitEdge{From: e.From, To: e.To})
		}
		for f, age := range shardAges {
			ageSet[f] = age
		}
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	ages := make([]wire.FamilyAge, 0, len(ageSet))
	for f, age := range ageSet {
		ages = append(ages, wire.FamilyAge{Family: f, Age: age})
	}
	sort.Slice(ages, func(i, j int) bool { return ages[i].Family < ages[j].Family })
	return edges, ages
}

func summariesEqual(e1, e2 []wire.WaitEdge, a1, a2 []wire.FamilyAge) bool {
	if len(e1) != len(e2) || len(a1) != len(a2) {
		return false
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			return false
		}
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			return false
		}
	}
	return true
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
		edges, ages := h.localSummaryLocked()
		if summariesEqual(edges, h.lastEdges, ages, h.lastAges) {
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
	a := &acts{h: h}
	h.mu.Lock()
	h.adoptLocked(a, m)
	h.mu.Unlock()
	a.run()
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

// detectLocked runs coordinator detection over the union of this host's
// live edges and every stored peer summary, aborting the youngest family
// per cycle until the combined graph is acyclic.
func (h *Host) detectLocked(a *acts) {
	for {
		adj, ages := h.unionWaitsLocked()
		peerIDs := make([]ids.NodeID, 0, len(h.peers))
		for id := range h.peers {
			peerIDs = append(peerIDs, id)
		}
		sort.Slice(peerIDs, func(i, j int) bool { return peerIDs[i] < peerIDs[j] })
		for _, id := range peerIDs {
			p := h.peers[id]
			for _, e := range p.edges {
				adj[e.From] = append(adj[e.From], e.To)
			}
			for _, fa := range p.ages {
				if _, ok := ages[fa.Family]; !ok {
					ages[fa.Family] = fa.Age
				}
			}
		}
		sortAdj(adj)
		cycle := firstCycle(adj)
		if len(cycle) == 0 {
			return
		}
		victim := youngest(cycle, ages)
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
