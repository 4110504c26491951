package gdo

import (
	"slices"

	"lotec/internal/ids"
)

// Inter-family deadlock detection.
//
// The paper's simulation does not address inter-family deadlock (two
// families each holding an object the other wants will wait forever under
// plain 2PL). Any deployable system needs a resolution policy, so the
// directory maintains the family-level waits-for relation implied by its
// queues and pending upgrades, checks for cycles whenever a wait is added or
// re-pointed, and aborts the *youngest* waiting family in the cycle. Age is
// the root TxID of the family's first attempt, kept stable across retries
// (wound-wait style), so a repeatedly victimized root eventually becomes
// the oldest in any cycle and is guaranteed to win — no starvation.
//
// The detector runs on every release that re-points waiters (the directory's
// steady-state hot path), so all of its working state — the flat edge list,
// the DFS stack, the color and age maps — lives in a per-Directory scratch
// area (wfScratch) that is reused across calls. A run allocates only while
// the graph outgrows every previous one; at steady state it allocates
// nothing. The maps are clear()ed, not reallocated: Go map clears keep the
// buckets.

// WaitEdge is one family-level waits-for edge: From is queued (or upgrading)
// behind a lock To currently holds. Edge summaries are what a partitioned
// directory's shards exchange so inter-shard cycles stay detectable (see
// package directory).
type WaitEdge struct {
	From ids.FamilyID
	To   ids.FamilyID
}

// wfScratch is the detector's reusable working state. Guarded by d.mu; only
// valid within one locked call.
type wfScratch struct {
	edges []WaitEdge              // flat adjacency, sorted by (From, To)
	ages  map[ids.FamilyID]uint64 // waiting family → deadlock age
	color map[ids.FamilyID]uint8  // DFS colors (white=absent, gray, black)
	stack []wfFrame               // iterative DFS stack
	cycle []ids.FamilyID          // cycle members, stack-top first
}

// wfFrame is one iterative-DFS stack slot: a gray family and the index of
// the next adjacency edge to visit.
type wfFrame struct {
	fam  ids.FamilyID
	next int
}

// DFS colors. White is encoded as absence from the color map.
const (
	wfGray  uint8 = 1
	wfBlack uint8 = 2
)

// HasWaiters reports whether any family is queued or upgrading here. The
// sharded router uses it as an O(1) precheck: a cycle spanning shards needs
// waiting families in at least two of them.
func (d *Directory) HasWaiters() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.waitObjs) > 0
}

// WaitEdges summarizes this directory's waits-for relation: the edge list
// plus the waiting families' deadlock ages. The sharded router unions the
// summaries of every shard and runs the same cycle search findDeadlockVictimLocked
// performs locally. The returned slice and map are the caller's to keep —
// they are copied out of the detector's scratch.
func (d *Directory) WaitEdges() ([]WaitEdge, map[ids.FamilyID]uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buildWaitsForLocked()
	var edges []WaitEdge
	var ages map[ids.FamilyID]uint64
	if len(d.wf.edges) > 0 {
		edges = append(edges, d.wf.edges...)
	}
	if len(d.wf.ages) > 0 {
		ages = make(map[ids.FamilyID]uint64, len(d.wf.ages))
		for f, a := range d.wf.ages {
			ages[f] = a
		}
	}
	return edges, ages
}

// AbortVictim cancels every queued request and pending upgrade of victim in
// this directory and returns the deadlock-abort events for its site(s). It
// is the externally driven form of the abort performed when local detection
// picks a victim; the sharded router calls it on every shard once an
// inter-shard cycle is found.
func (d *Directory) AbortVictim(victim ids.FamilyID) []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.abortVictimLocked(victim)
}

// PurgeFamily silently removes family from every queue and upgrade list
// (no events). The sharded router uses it when the requesting family itself
// is chosen as the victim of an inter-shard cycle: the synchronous
// DeadlockAbort reply covers the notification, exactly as the local
// detector's purge does.
func (d *Directory) PurgeFamily(family ids.FamilyID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.purgeFamilyLocked(family)
}

// buildWaitsForLocked derives the waits-for relation from current directory
// state into the reused scratch: a queued family waits on every holder of
// that object; an upgrading family waits on every *other* holder. The edge
// list ends sorted by (From, To), so each family's neighbors are a
// contiguous ascending run — the deterministic traversal order the old
// per-key sort provided, without the per-call maps. Caller holds d.mu.
func (d *Directory) buildWaitsForLocked() {
	d.wf.edges = d.wf.edges[:0]
	if d.wf.ages == nil {
		d.wf.ages = make(map[ids.FamilyID]uint64) // first use; the map is reused (clear keeps buckets)
	}
	clear(d.wf.ages)
	if len(d.waitObjs) == 0 {
		return
	}
	// Only entries someone waits on can contribute edges; waitObjs indexes
	// exactly those, so idle directories pay nothing here. The edge multiset
	// is map-order independent: it is sorted before any traversal.
	for _, e := range d.waitObjs {
		for _, q := range e.queues {
			d.wf.ages[q.family] = q.age
			for _, h := range e.holders {
				if q.family != h.family {
					d.wf.edges = append(d.wf.edges, WaitEdge{From: q.family, To: h.family})
				}
			}
		}
		for _, u := range e.upgrades {
			d.wf.ages[u.family] = u.age
			for _, h := range e.holders {
				if u.family != h.family {
					d.wf.edges = append(d.wf.edges, WaitEdge{From: u.family, To: h.family})
				}
			}
		}
	}
	slices.SortFunc(d.wf.edges, cmpWaitEdge)
}

// cmpWaitEdge orders edges by (From, To).
func cmpWaitEdge(a, b WaitEdge) int {
	switch {
	case a.From < b.From:
		return -1
	case a.From > b.From:
		return 1
	case a.To < b.To:
		return -1
	case a.To > b.To:
		return 1
	}
	return 0
}

// neighborsLocked returns the index range [lo, hi) of f's outgoing edges in
// the sorted scratch edge list. Caller holds d.mu after buildWaitsForLocked.
func (d *Directory) neighborsLocked(f ids.FamilyID) (int, int) {
	edges := d.wf.edges
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if edges[mid].From < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := lo
	for end < len(edges) && edges[end].From == f {
		end++
	}
	return lo, end
}

// waitedOnLocked reports whether some other family waits for a lock f
// holds, i.e. whether the waits-for graph has an edge into f. Caller holds
// d.mu.
func (d *Directory) waitedOnLocked(f ids.FamilyID) bool {
	//lotec:unordered — pure existence scan; any hit gives the same answer.
	for _, e := range d.waitObjs {
		if e.holder(f) == nil {
			continue
		}
		if len(e.queues) > 0 { // a holder's own requests never queue
			return true
		}
		for _, u := range e.upgrades {
			if u.family != f {
				return true
			}
		}
	}
	return false
}

// breakCyclesLocked is the check every added or re-pointed wait of start
// goes through: it aborts the victim of each cycle start reaches until
// there is none — one request can close several at once, one per holder it
// waits on — and returns the abort events. When start itself is the
// youngest on a cycle it stops and reports self; the caller withdraws
// start's waits its own way, which breaks every remaining cycle through
// start. Either way the graph is acyclic again when the directory call
// returns. Caller holds d.mu.
func (d *Directory) breakCyclesLocked(start ids.FamilyID) (events []Event, self bool) {
	for {
		victim, cycle := d.findDeadlockVictimLocked(start)
		if !cycle || victim == start {
			return events, cycle
		}
		events = append(events, d.abortVictimLocked(victim)...)
	}
}

// findDeadlockVictimLocked looks for a waits-for cycle reachable from start and,
// if one exists, returns the youngest waiting family on it. It runs on the
// scratch graph with an iterative DFS — no per-call maps, slices or
// closures. Caller holds d.mu.
//
// Its only caller is breakCyclesLocked, so the graph is acyclic between
// directory calls and a cycle can only run through start's own new edges.
// It then needs an edge back into start; when nobody waits on start — every
// root's first acquire — there is none and the graph is not built at all.
func (d *Directory) findDeadlockVictimLocked(start ids.FamilyID) (ids.FamilyID, bool) {
	if !d.waitedOnLocked(start) {
		return 0, false
	}
	d.buildWaitsForLocked()
	if len(d.wf.edges) == 0 {
		return 0, false
	}
	if d.wf.color == nil {
		d.wf.color = make(map[ids.FamilyID]uint8) // first use; the map is reused (clear keeps buckets)
	}
	clear(d.wf.color)
	d.wf.stack = d.wf.stack[:0]
	d.wf.cycle = d.wf.cycle[:0]

	// Iterative white/gray/black DFS, visiting each gray family's neighbors
	// in ascending order — the exact traversal the recursive form performed.
	d.wf.color[start] = wfGray
	lo, _ := d.neighborsLocked(start)
	d.wf.stack = append(d.wf.stack, wfFrame{fam: start, next: lo})
	found := false
	for len(d.wf.stack) > 0 && !found {
		top := &d.wf.stack[len(d.wf.stack)-1]
		if top.next >= len(d.wf.edges) || d.wf.edges[top.next].From != top.fam {
			// Neighbors exhausted: blacken and pop.
			d.wf.color[top.fam] = wfBlack
			d.wf.stack = d.wf.stack[:len(d.wf.stack)-1]
			continue
		}
		g := d.wf.edges[top.next].To
		top.next++
		switch d.wf.color[g] {
		case wfGray:
			// Found a cycle: the stack suffix from g onward, top first.
			for i := len(d.wf.stack) - 1; i >= 0; i-- {
				d.wf.cycle = append(d.wf.cycle, d.wf.stack[i].fam)
				if d.wf.stack[i].fam == g {
					break
				}
			}
			found = true
		case wfBlack:
			// Explored and cycle-free; skip.
		default:
			d.wf.color[g] = wfGray
			glo, _ := d.neighborsLocked(g)
			d.wf.stack = append(d.wf.stack, wfFrame{fam: g, next: glo})
		}
	}
	if !found {
		return 0, false
	}
	// Victim: the youngest (largest-age) waiting family on the cycle. All
	// cycle members wait by construction; tie-break on FamilyID for
	// determinism.
	victim := d.wf.cycle[0]
	for _, f := range d.wf.cycle[1:] {
		av, af := d.wf.ages[victim], d.wf.ages[f]
		if af > av || (af == av && f > victim) {
			victim = f
		}
	}
	return victim, true
}
