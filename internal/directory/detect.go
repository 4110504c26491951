// Inter-family deadlock detection across shards.
//
// Each shard detects cycles among its own waiters (gdo/deadlock.go). A cycle
// whose edges straddle shards — family A queued on a shard-0 object family
// B holds while B is queued on a shard-1 object A holds — is invisible to
// both shards individually, so a host serving several primary shards
// performs the paper-family of "edge chasing" in its simplest sound form:
// every shard appends its waits-for edges and ages to one reused
// gdo.WaitGraph, and the host runs the shards' own search (gdo.WaitGraph)
// over the union. There is one search and one victim policy — the youngest
// (largest-age) waiting family on the cycle, FamilyID tie-break, neighbours
// visited in ascending order, wound-wait stable ages, so a repeatedly
// victimized root eventually becomes oldest and cannot starve — whether one
// directory, a host (tier 1, over the shards it serves as primary) or the
// tier-2 coordinator (coord.go) runs it.
//
// A host runs the search synchronously at the two moments the graph can
// gain an edge or re-point one — when an acquire parks (Acquire → Queued)
// and after a release or an adoption hands locks to new holders — rather
// than on a timer, so detection latency is zero and simulation runs stay
// deterministic. A parked acquire builds the union only when some shard has
// a family waiting on a lock the requester holds: a cycle through the
// requester needs that edge.

package directory

import (
	"lotec/internal/gdo"
	"lotec/internal/ids"
)

// unionInto resets g to the union of the directories' waits-for relations,
// unsorted. Ages follow directory order, so where they differ the first
// directory's wins once g is sorted.
func unionInto(g *gdo.WaitGraph, dirs []*gdo.Directory) {
	g.Reset()
	for _, d := range dirs {
		d.AppendWaits(g)
	}
}

// crossShardPossible is the O(1)-per-shard precheck gating every union
// pass: a cycle whose edges straddle shards requires waiting families in at
// least two shards. Intra-shard cycles are the shards' own business — their
// local detectors already handle them — so when fewer than two shards have
// waiters there is nothing to find.
func crossShardPossible(dirs []*gdo.Directory) bool {
	if len(dirs) < 2 {
		return false
	}
	withWaiters := 0
	for _, d := range dirs {
		if d.HasWaiters() {
			if withWaiters++; withWaiters == 2 {
				return true
			}
		}
	}
	return false
}

// waitedOn reports whether some family waits, in any of the directories,
// for a lock f holds.
func waitedOn(dirs []*gdo.Directory, f ids.FamilyID) bool {
	for _, d := range dirs {
		if d.WaitedOn(f) {
			return true
		}
	}
	return false
}

// findVictimFrom searches the union waits-for graph, built in g, for a
// cycle reachable from start and returns the youngest waiting family on it.
func findVictimFrom(g *gdo.WaitGraph, dirs []*gdo.Directory, start ids.FamilyID) (ids.FamilyID, bool) {
	if !crossShardPossible(dirs) || !waitedOn(dirs, start) {
		return 0, false
	}
	unionInto(g, dirs)
	g.Sort()
	return g.VictimFrom(start)
}

// sweep repeatedly searches the union graph, built in g, and hands the
// youngest family of each cycle to abort until the graph is acyclic. It
// runs after releases and adoptions, where grant re-pointing can close
// cycles no single shard sees; it is bounded because every abort removes at
// least one waiting family.
func sweep(g *gdo.WaitGraph, dirs []*gdo.Directory, abort func(victim ids.FamilyID)) {
	for crossShardPossible(dirs) {
		unionInto(g, dirs)
		g.Sort()
		victim, ok := g.Victim()
		if !ok {
			return
		}
		abort(victim)
	}
}
