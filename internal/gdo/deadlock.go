package gdo

import (
	"cmp"
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
// The search over the relation is WaitGraph's, and it is the only one:
// this directory runs it over its own waits, and package directory runs it
// over the union of several directories' waits (the shards of one host) and
// over the summaries other hosts push. Every detector therefore
// decides alike: the same traversal order, the same victim.
//
// The detector runs on every release that re-points waiters (the directory's
// steady-state hot path), so all of its working state — the flat edge and
// age lists, the DFS stack and the color map — lives in a WaitGraph that is
// reused across calls. A run allocates only while the graph outgrows every
// previous one; at steady state it allocates nothing. The map is clear()ed,
// not reallocated: Go map clears keep the buckets.

// WaitEdge is one family-level waits-for edge: From is queued (or upgrading)
// behind a lock To currently holds.
type WaitEdge struct {
	From ids.FamilyID
	To   ids.FamilyID
}

// FamilyAge pairs a waiting family with its deadlock age.
type FamilyAge struct {
	Family ids.FamilyID
	Age    uint64
}

// WaitGraph is a family-level waits-for graph and the reusable working
// state of the cycle search over it. Fill it with Reset and AppendWaits
// (once per directory) or by appending to Edges and Ages, then Sort it
// before a search. The zero value is an empty graph. A graph is not safe for
// concurrent use.
type WaitGraph struct {
	// Edges is the flat adjacency, sorted by (From, To) after Sort, so each
	// family's neighbours are a contiguous ascending run. Duplicates are
	// harmless.
	Edges []WaitEdge
	// Ages holds the deadlock age of every waiting family, one entry per
	// family sorted by Family after Sort. Where a family was appended more
	// than once, the first entry wins.
	Ages []FamilyAge

	color map[ids.FamilyID]uint8 // DFS colors (white=absent, gray, black)
	stack []wfFrame              // iterative DFS stack
	cycle []ids.FamilyID         // cycle members, stack-top first
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

// Reset empties the graph, keeping its storage.
func (g *WaitGraph) Reset() {
	g.Edges = g.Edges[:0]
	g.Ages = g.Ages[:0]
}

// Sort orders the edges by (From, To) and the ages by family, keeping only
// the first age appended for each family.
func (g *WaitGraph) Sort() {
	slices.SortFunc(g.Edges, func(a, b WaitEdge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	slices.SortStableFunc(g.Ages, func(a, b FamilyAge) int { return cmp.Compare(a.Family, b.Family) })
	g.Ages = slices.CompactFunc(g.Ages, func(a, b FamilyAge) bool { return a.Family == b.Family })
}

// VictimFrom looks for a waits-for cycle reachable from start and, if one
// exists, returns the youngest waiting family on it.
func (g *WaitGraph) VictimFrom(start ids.FamilyID) (ids.FamilyID, bool) {
	if len(g.Edges) == 0 {
		return 0, false
	}
	g.clearColors()
	if !g.dfs(start) {
		return 0, false
	}
	return g.youngest(), true
}

// Victim looks for any cycle, trying starts in ascending family order, and
// returns the youngest waiting family on the first one found. A family
// left black by an earlier start reaches no cycle, so it is not tried again.
func (g *WaitGraph) Victim() (ids.FamilyID, bool) {
	if len(g.Edges) == 0 {
		return 0, false
	}
	g.clearColors()
	for _, e := range g.Edges {
		if g.color[e.From] == 0 && g.dfs(e.From) {
			return g.youngest(), true
		}
	}
	return 0, false
}

func (g *WaitGraph) clearColors() {
	if g.color == nil {
		g.color = make(map[ids.FamilyID]uint8) // first use; the map is reused (clear keeps buckets)
	}
	clear(g.color)
}

// dfs runs an iterative white/gray/black DFS from start, visiting each gray
// family's neighbours in ascending order. On reaching a gray family it
// leaves the cycle in g.cycle and reports true; otherwise every family it
// reached ends black.
func (g *WaitGraph) dfs(start ids.FamilyID) bool {
	g.stack = g.stack[:0]
	g.cycle = g.cycle[:0]
	g.color[start] = wfGray
	g.stack = append(g.stack, wfFrame{fam: start, next: g.neighbors(start)})
	for len(g.stack) > 0 {
		top := &g.stack[len(g.stack)-1]
		if top.next >= len(g.Edges) || g.Edges[top.next].From != top.fam {
			// Neighbors exhausted: blacken and pop.
			g.color[top.fam] = wfBlack
			g.stack = g.stack[:len(g.stack)-1]
			continue
		}
		f := g.Edges[top.next].To
		top.next++
		switch g.color[f] {
		case wfGray:
			// Found a cycle: the stack suffix from f onward, top first.
			for i := len(g.stack) - 1; i >= 0; i-- {
				g.cycle = append(g.cycle, g.stack[i].fam)
				if g.stack[i].fam == f {
					break
				}
			}
			return true
		case wfBlack:
			// Explored and cycle-free; skip.
		default:
			g.color[f] = wfGray
			g.stack = append(g.stack, wfFrame{fam: f, next: g.neighbors(f)})
		}
	}
	return false
}

// neighbors returns the index of f's first outgoing edge in the sorted edge
// list (or of the first edge past where it would be).
func (g *WaitGraph) neighbors(f ids.FamilyID) int {
	i, _ := slices.BinarySearchFunc(g.Edges, f, func(e WaitEdge, f ids.FamilyID) int { return cmp.Compare(e.From, f) })
	return i
}

// youngest picks the victim from the cycle dfs found: the largest age, with
// a FamilyID tie-break for determinism. Every cycle member waits, so each
// has an age.
func (g *WaitGraph) youngest() ids.FamilyID {
	victim := g.cycle[0]
	for _, f := range g.cycle[1:] {
		av, af := g.age(victim), g.age(f)
		if af > av || (af == av && f > victim) {
			victim = f
		}
	}
	return victim
}

// age returns f's deadlock age (0 if f is not waiting).
func (g *WaitGraph) age(f ids.FamilyID) uint64 {
	if i, ok := slices.BinarySearchFunc(g.Ages, f, func(a FamilyAge, f ids.FamilyID) int { return cmp.Compare(a.Family, f) }); ok {
		return g.Ages[i].Age
	}
	return 0
}

// HasWaiters reports whether any family is queued or upgrading here. A
// directory host uses it as an O(1) precheck: a cycle spanning shards needs
// waiting families in at least two of them.
func (d *Directory) HasWaiters() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.waitObjs) > 0
}

// WaitedOn reports whether some other family waits here for a lock f
// holds. A cycle through f needs such an edge, so a host that finds none
// in any of its directories can skip the search for one.
func (d *Directory) WaitedOn(f ids.FamilyID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.waitedOnLocked(f)
}

// AppendWaits appends this directory's waits-for relation to g, unsorted:
// a queued family waits on every holder of that object; an upgrading
// family waits on every *other* holder. A directory host appends several
// directories into one graph and searches the union.
func (d *Directory) AppendWaits(g *WaitGraph) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.appendWaitsLocked(g)
}

// AbortVictim cancels every queued request and pending upgrade of victim in
// this directory and returns the deadlock-abort events for its site(s). It
// is the externally driven form of the abort performed when local detection
// picks a victim; a directory host calls it on every shard once an
// inter-shard cycle is found.
func (d *Directory) AbortVictim(victim ids.FamilyID) []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.abortVictimLocked(victim)
}

// PurgeFamily silently removes family from every queue and upgrade list
// (no events). A directory host uses it when the requesting family itself
// is chosen as the victim of an inter-shard cycle: the synchronous
// DeadlockAbort reply covers the notification, exactly as the local
// detector's purge does.
func (d *Directory) PurgeFamily(family ids.FamilyID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.purgeFamilyLocked(family)
}

// appendWaitsLocked is AppendWaits with d.mu held. Only entries someone
// waits on can contribute edges; waitObjs indexes exactly those, so idle
// directories add nothing.
func (d *Directory) appendWaitsLocked(g *WaitGraph) {
	//lotec:unordered — g is sorted before any search; a family's requests all carry its one age.
	for _, e := range d.waitObjs {
		for _, q := range e.queues {
			g.Ages = append(g.Ages, FamilyAge{Family: q.family, Age: q.age})
			for _, h := range e.holders {
				if q.family != h.family {
					g.Edges = append(g.Edges, WaitEdge{From: q.family, To: h.family})
				}
			}
		}
		for _, u := range e.upgrades {
			g.Ages = append(g.Ages, FamilyAge{Family: u.family, Age: u.age})
			for _, h := range e.holders {
				if u.family != h.family {
					g.Edges = append(g.Edges, WaitEdge{From: u.family, To: h.family})
				}
			}
		}
	}
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

// findDeadlockVictimLocked looks for a waits-for cycle reachable from start
// and, if one exists, returns the youngest waiting family on it. It builds
// this directory's graph into the reused d.wf and searches it. Caller holds
// d.mu.
//
// Its only caller is breakCyclesLocked, so the graph is acyclic between
// directory calls and a cycle can only run through start's own new edges.
// It then needs an edge back into start; when nobody waits on start — every
// root's first acquire — there is none and the graph is not built at all.
// Within one recheckQueuedLocked sweep only an abort changes the relation,
// so the sweep's searches share one build until abortVictimLocked marks it
// stale.
func (d *Directory) findDeadlockVictimLocked(start ids.FamilyID) (ids.FamilyID, bool) {
	if !d.waitedOnLocked(start) {
		return 0, false
	}
	if !d.wfFresh {
		d.wf.Reset()
		d.appendWaitsLocked(&d.wf)
		d.wf.Sort()
		d.wfFresh = d.wfSweep
	}
	return d.wf.VictimFrom(start)
}
