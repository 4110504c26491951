// Inter-family deadlock detection across shards.
//
// Each shard detects cycles among its own waiters exactly as the single
// directory does (gdo/deadlock.go). A cycle whose edges straddle shards —
// family A queued on a shard-0 object family B holds while B is queued on a
// shard-1 object A holds — is invisible to both shards individually, so the
// router performs the paper-family of "edge chasing" in its simplest sound
// form: every shard exports its waits-for edge summary (gdo.WaitEdges) and
// the router unions them and searches the combined graph. In this
// in-process router aggregation runs synchronously at the two moments the
// graph can gain an edge or re-point one — when an acquire parks
// (Acquire → Queued) and after a release hands locks to new holders —
// rather than on a timer, so detection latency is zero and simulation runs
// stay deterministic. Victim selection matches the shard-local policy:
// the youngest (largest-age) waiting family on the cycle, FamilyID
// tie-break, wound-wait stable ages, so a repeatedly victimized root
// eventually becomes oldest and cannot starve.
//
// The router (Sharded, over all its shards) and the replicated host (Host,
// over the shards it serves as primary) run the same detection below, over
// a list of directories in shard order.
//
// Under real concurrency (stress tests) the union is a sequence of
// per-shard snapshots, not one atomic cut, so the search can observe a
// phantom cycle assembled from edges that never coexisted. A phantom victim
// is safe — the family aborts and retries, exactly like a real victim — and
// the stable-age policy still guarantees progress.

package directory

import (
	"sort"

	"lotec/internal/gdo"
	"lotec/internal/ids"
)

// unionWaits aggregates the directories' waits-for edge summaries into one
// adjacency map (deterministically ordered) plus the waiting families'
// ages.
func unionWaits(dirs []*gdo.Directory) (map[ids.FamilyID][]ids.FamilyID, map[ids.FamilyID]uint64) {
	adj := make(map[ids.FamilyID][]ids.FamilyID)
	ages := make(map[ids.FamilyID]uint64)
	for _, d := range dirs {
		edges, shardAges := d.WaitEdges()
		for _, e := range edges {
			adj[e.From] = append(adj[e.From], e.To)
		}
		for f, age := range shardAges {
			ages[f] = age
		}
	}
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

// findCycleFrom runs the same colored DFS the shard-local detector uses,
// over an arbitrary adjacency, and returns the first cycle reachable from
// start (empty if none).
func findCycleFrom(adj map[ids.FamilyID][]ids.FamilyID, start ids.FamilyID) []ids.FamilyID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[ids.FamilyID]int)
	var stack []ids.FamilyID
	var cycle []ids.FamilyID

	var dfs func(f ids.FamilyID) bool
	dfs = func(f ids.FamilyID) bool {
		color[f] = gray
		stack = append(stack, f)
		for _, g := range adj[f] {
			switch color[g] {
			case white:
				if dfs(g) {
					return true
				}
			case gray:
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == g {
						break
					}
				}
				return true
			}
		}
		stack = stack[:len(stack)-1]
		color[f] = black
		return false
	}
	if !dfs(start) {
		return nil
	}
	return cycle
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

// youngest picks the victim from a cycle: largest age, FamilyID tie-break —
// identical to the shard-local policy.
func youngest(cycle []ids.FamilyID, ages map[ids.FamilyID]uint64) ids.FamilyID {
	victim := cycle[0]
	for _, f := range cycle[1:] {
		av, af := ages[victim], ages[f]
		if af > av || (af == av && f > victim) {
			victim = f
		}
	}
	return victim
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

// findVictimFrom searches the union waits-for graph for a cycle reachable
// from start and returns the youngest waiting family on it.
func findVictimFrom(dirs []*gdo.Directory, start ids.FamilyID) (ids.FamilyID, bool) {
	if !crossShardPossible(dirs) {
		return 0, false
	}
	adj, ages := unionWaits(dirs)
	cycle := findCycleFrom(adj, start)
	if len(cycle) == 0 {
		return 0, false
	}
	return youngest(cycle, ages), true
}

// sweep repeatedly searches the union graph and hands the youngest family
// of each cycle to abort until the graph is acyclic. It runs after releases
// and adoptions, where grant re-pointing can close cycles no single shard
// sees; it is bounded because every abort removes at least one waiting
// family.
func sweep(dirs []*gdo.Directory, abort func(victim ids.FamilyID)) {
	for crossShardPossible(dirs) {
		adj, ages := unionWaits(dirs)
		cycle := firstCycle(adj)
		if len(cycle) == 0 {
			return
		}
		abort(youngest(cycle, ages))
	}
}

// abortVictim cancels the victim's waits on every shard and collects the
// deadlock-abort events for its site(s), each stamped with the shard it
// came from.
func (s *Sharded) abortVictim(victim ids.FamilyID) []gdo.Event {
	var events []gdo.Event
	for i, sh := range s.shards {
		events = append(events, stamp(i, sh.AbortVictim(victim))...)
	}
	return events
}

// sweep aborts the youngest family of each cross-shard cycle until the
// router's union graph is acyclic, and returns the abort events.
func (s *Sharded) sweep() []gdo.Event {
	var events []gdo.Event
	sweep(s.shards, func(victim ids.FamilyID) {
		events = append(events, s.abortVictim(victim)...)
	})
	return events
}
