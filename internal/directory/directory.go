// Package directory implements the *partitioned* Global Directory of
// Objects the paper describes in §4.1 ("the GDO may be partitioned and
// replicated for scalability and reliability"). Package gdo keeps one
// object's worth of directory logic — Figure 1 entries, Algorithm 4.2
// acquisition and Algorithm 4.4 release — in a single structure guarded by
// a single mutex; this package scales it out: a Sharded directory is N
// independent gdo.Directory instances, each owning the lock state and page
// map of the objects that home to it, fronted by a thin router that
// preserves the gdo.Directory-shaped API so the node engine, the
// simulation, and the TCP deployment switch over without protocol changes.
//
// Three concerns span shards and live in the router:
//
//   - Placement: deterministic object→shard assignment (ShardOf), kept
//     consistent with the cost model's object→home-node assignment
//     (HomeNode) so the simulation charges global lock traffic to the same
//     partition the deployment would consult.
//   - Commit order: strict nested O2PL serializes committed families in
//     release-arrival order; with the lock state split, the router assigns
//     the global sequence numbers (one short critical section per
//     committing release — never on the acquire path).
//   - Inter-family deadlock detection across shards: each shard detects
//     cycles among its own waiters exactly as before, and additionally
//     exports a waits-for edge summary (gdo.WaitEdges); the router unions
//     the summaries and searches the combined graph, so a cycle whose
//     edges straddle shards is still found and the youngest family on it
//     is still the victim. See detect.go.
//
// With one shard the router degenerates to pure delegation: no extra
// locking, no cross-shard passes, byte-identical behaviour to the single
// gdo.Directory it wraps.
package directory

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// Service is the directory API the rest of the system programs against —
// exactly the shape of *gdo.Directory, which satisfies it, as does
// *Sharded. The node engine, the simulation cluster and the TCP GDO server
// all accept a Service, so a deployment picks its partitioning by
// construction, not by code changes.
type Service interface {
	Register(obj ids.ObjectID, numPages int, owner ids.NodeID) error
	NumPages(obj ids.ObjectID) (int, error)
	Objects() []ids.ObjectID
	State(obj ids.ObjectID) (gdo.LockState, error)
	ReadCount(obj ids.ObjectID) (int, error)
	PageMap(obj ids.ObjectID) ([]gdo.PageLoc, error)
	CopySet(obj ids.ObjectID) ([]ids.NodeID, error)
	CommitSeq(f ids.FamilyID) (uint64, bool)
	LastWriter(obj ids.ObjectID) (ids.NodeID, error)
	Acquire(obj ids.ObjectID, ref ids.TxRef, family ids.FamilyID, age uint64, site ids.NodeID, mode o2pl.Mode) (gdo.AcquireResult, []gdo.Event, error)
	Adopt(obj ids.ObjectID, ref ids.TxRef, family ids.FamilyID, age uint64, site ids.NodeID, mode o2pl.Mode) (gdo.AcquireResult, []gdo.Event, error)
	Release(family ids.FamilyID, site ids.NodeID, commit bool, rels []gdo.ObjectRelease) ([]gdo.Event, []gdo.PageStamp, error)
	ReleaseKeep(family ids.FamilyID, site ids.NodeID, commit, keep bool, rels []gdo.ObjectRelease) ([]gdo.Event, []gdo.PageStamp, []ids.ObjectID, error)
	CancelRequest(obj ids.ObjectID, family ids.FamilyID) (bool, error)
	DebugDump() string
}

// Compile-time checks: the single directory and the sharded router expose
// the same service.
var (
	_ Service = (*gdo.Directory)(nil)
	_ Service = (*Sharded)(nil)
)

// Placement is the deterministic object→partition assignment shared by
// every process of a deployment. Shards is the number of directory
// partitions; Nodes is the cluster size the cost model attributes global
// messages to.
type Placement struct {
	Shards int
	Nodes  int
}

// NewPlacement normalizes a placement (both counts at least 1).
func NewPlacement(shards, nodes int) Placement {
	if shards < 1 {
		shards = 1
	}
	if nodes < 1 {
		nodes = 1
	}
	return Placement{Shards: shards, Nodes: nodes}
}

// ShardOf returns the directory partition owning obj's lock state and page
// map. It extends the cost model's HomeNode hashing: when Shards == Nodes
// the objects homed at one node form exactly one shard, so the cost model
// and the real partitioning agree.
//
//lotec:noalloc
func (p Placement) ShardOf(obj ids.ObjectID) int {
	s := int(int64(obj) % int64(p.Shards))
	if s < 0 {
		s += p.Shards
	}
	return s
}

// HomeNode returns the node global lock messages for obj are charged to —
// unchanged from gdo.Directory.HomeNode, so per-object message attribution
// (Figures 6–8 re-pricing) is identical at every shard count.
//
//lotec:noalloc
func (p Placement) HomeNode(obj ids.ObjectID) ids.NodeID {
	h := int64(obj) % int64(p.Nodes)
	if h < 0 {
		h += int64(p.Nodes)
	}
	return ids.NodeID(h) + 1
}

// Sharded is the partitioned Global Directory of Objects: a router over
// Placement.Shards independent gdo.Directory partitions. Acquires and
// releases on objects of different shards never contend on a shared mutex;
// the only router-level critical section is global commit-order assignment
// on committing releases. It is safe for concurrent use.
type Sharded struct {
	place  Placement
	shards []*gdo.Directory

	// Commit-order bookkeeping (see package doc); the acquire path never
	// takes mu.
	mu      sync.Mutex
	commits gdo.CommitWindow // guarded by mu
}

// NewSharded returns an empty sharded directory with the given number of
// partitions for a cluster of nodes sites. Site-retained grants are off, as
// in the paper; SetRetainGrants turns them on.
func NewSharded(shards, nodes int) *Sharded {
	p := NewPlacement(shards, nodes)
	s := &Sharded{
		place:  p,
		shards: make([]*gdo.Directory, p.Shards),
	}
	for i := range s.shards {
		s.shards[i] = gdo.New(p.Nodes)
	}
	return s
}

// SetRetainGrants turns site-retained grants (gdo/retain.go) on or off in
// every partition. Call it before the directory serves traffic.
func (s *Sharded) SetRetainGrants(on bool) {
	for _, sh := range s.shards {
		sh.SetRetainGrants(on)
	}
}

// The accessors below sit on every acquire/release route; none may
// allocate.
//
//lotec:noalloc
func (s *Sharded) Placement() Placement { return s.place }

// NumShards returns the partition count.
//
//lotec:noalloc
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardOf returns the partition owning obj.
//
//lotec:noalloc
func (s *Sharded) ShardOf(obj ids.ObjectID) int { return s.place.ShardOf(obj) }

// HomeNode returns the node obj's global lock messages are charged to.
//
//lotec:noalloc
func (s *Sharded) HomeNode(obj ids.ObjectID) ids.NodeID { return s.place.HomeNode(obj) }

// Shard exposes one partition (tests and diagnostics).
//
//lotec:noalloc
func (s *Sharded) Shard(i int) *gdo.Directory { return s.shards[i] }

// shardFor routes an object to its partition.
//
//lotec:noalloc
func (s *Sharded) shardFor(obj ids.ObjectID) *gdo.Directory {
	return s.shards[s.place.ShardOf(obj)]
}

// stamp tags events with the shard they originated from.
//
//lotec:noalloc
func stamp(shard int, events []gdo.Event) []gdo.Event {
	for i := range events {
		events[i].Shard = int32(shard)
	}
	return events
}

// Register adds an object to its home shard.
func (s *Sharded) Register(obj ids.ObjectID, numPages int, owner ids.NodeID) error {
	return s.shardFor(obj).Register(obj, numPages, owner)
}

// NumPages returns the registered extent of obj.
func (s *Sharded) NumPages(obj ids.ObjectID) (int, error) {
	return s.shardFor(obj).NumPages(obj)
}

// Objects returns all registered objects across every shard, ascending.
func (s *Sharded) Objects() []ids.ObjectID {
	if len(s.shards) == 1 {
		return s.shards[0].Objects()
	}
	var out []ids.ObjectID
	for _, sh := range s.shards {
		out = append(out, sh.Objects()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// State returns the global lock state of obj.
func (s *Sharded) State(obj ids.ObjectID) (gdo.LockState, error) {
	return s.shardFor(obj).State(obj)
}

// ReadCount returns the number of reader families holding obj.
func (s *Sharded) ReadCount(obj ids.ObjectID) (int, error) {
	return s.shardFor(obj).ReadCount(obj)
}

// PageMap returns a copy of obj's page map.
func (s *Sharded) PageMap(obj ids.ObjectID) ([]gdo.PageLoc, error) {
	return s.shardFor(obj).PageMap(obj)
}

// CopySet returns the sites known to cache pages of obj.
func (s *Sharded) CopySet(obj ids.ObjectID) ([]ids.NodeID, error) {
	return s.shardFor(obj).CopySet(obj)
}

// LastWriter returns the site of obj's most recent committing update.
func (s *Sharded) LastWriter(obj ids.ObjectID) (ids.NodeID, error) {
	return s.shardFor(obj).LastWriter(obj)
}

// CommitSeq returns the family's position in the *global* commit order (1
// is first), assigned by the router when the family's first committing
// release arrived. With the lock state partitioned, shard-local sequence
// numbers would not be comparable across shards; the router's single
// counter restores the total order strict O2PL promises.
func (s *Sharded) CommitSeq(f ids.FamilyID) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits.Seq(f)
}

// AssignCommitSeq fixes the family's position in the global commit order
// and returns it (skip-if-present: re-assignment is a no-op). Release calls
// it for every committing batch, so the family's first one decides.
func (s *Sharded) AssignCommitSeq(f ids.FamilyID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits.Assign(f)
}

// CancelRequest withdraws family's queued requests and pending upgrades on
// obj.
func (s *Sharded) CancelRequest(obj ids.ObjectID, family ids.FamilyID) (bool, error) {
	return s.shardFor(obj).CancelRequest(obj, family)
}

// Acquire routes Algorithm 4.2 to obj's shard. The shard performs its own
// intra-shard deadlock detection exactly as the single directory does;
// when the request parks and more than one shard exists, the router
// additionally searches the union waits-for graph for cycles whose edges
// straddle shards (see detect.go).
func (s *Sharded) Acquire(obj ids.ObjectID, ref ids.TxRef, family ids.FamilyID, age uint64, site ids.NodeID, mode o2pl.Mode) (gdo.AcquireResult, []gdo.Event, error) {
	shard := s.place.ShardOf(obj)
	res, events, err := s.shards[shard].Acquire(obj, ref, family, age, site, mode)
	return s.afterAcquire(shard, family, res, events, err)
}

// Adopt routes gdo.Directory.Adopt to obj's shard. Renaming a site hold to
// a family that waits on another shard can close an inter-shard cycle
// whether or not this request parks, so the union graph is swept as after a
// release.
func (s *Sharded) Adopt(obj ids.ObjectID, ref ids.TxRef, family ids.FamilyID, age uint64, site ids.NodeID, mode o2pl.Mode) (gdo.AcquireResult, []gdo.Event, error) {
	shard := s.place.ShardOf(obj)
	res, events, err := s.shards[shard].Adopt(obj, ref, family, age, site, mode)
	res, events, err = s.afterAcquire(shard, family, res, events, err)
	if err == nil && len(s.shards) > 1 && res.Status != gdo.NotAdopted {
		events = append(events, s.sweep()...)
	}
	return res, events, err
}

// afterAcquire finishes a shard's acquire for the router: it stamps the
// events and, when the request parked, looks for a cycle across shards.
func (s *Sharded) afterAcquire(shard int, family ids.FamilyID, res gdo.AcquireResult, events []gdo.Event, err error) (gdo.AcquireResult, []gdo.Event, error) {
	if err != nil {
		return res, nil, err
	}
	events = stamp(shard, events)
	if len(s.shards) > 1 && res.Status == gdo.Queued {
		if victim, cycle := s.findVictimFrom(family); cycle {
			if victim == family {
				// Mirror the single directory's self-victim path: drop the
				// family's parked requests everywhere, silently — the
				// synchronous DeadlockAbort reply is the notification.
				for _, sh := range s.shards {
					sh.PurgeFamily(family)
				}
				return gdo.AcquireResult{Status: gdo.DeadlockAbort}, events, nil
			}
			events = append(events, s.abortVictim(victim)...)
		}
	}
	return res, events, nil
}

// Release routes Algorithm 4.4: the batch is split by shard and each shard
// releases, restamps and re-schedules its own objects. A family's first
// committing release is its commit point: the router assigns the global
// commit sequence here, once, and hands the shards a plain release — the
// partitions of a Sharded keep no commit window of their own. An empty
// committing batch (a routed family that holds nothing on shard 0, see
// node.Engine.releaseGlobal) does only that. After the per-shard releases,
// re-pointed waiters may close inter-shard cycles the shard-local re-checks
// cannot see, so with multiple shards the router sweeps the union waits-for
// graph until it is acyclic.
func (s *Sharded) Release(family ids.FamilyID, site ids.NodeID, commit bool, rels []gdo.ObjectRelease) ([]gdo.Event, []gdo.PageStamp, error) {
	events, stamps, _, err := s.ReleaseKeep(family, site, commit, false, rels)
	return events, stamps, err
}

// ReleaseKeep is Release in the form gdo.Directory.ReleaseKeep has: with
// keep set the partitions may leave released locks at the releasing site,
// and kept lists them.
func (s *Sharded) ReleaseKeep(family ids.FamilyID, site ids.NodeID, commit, keep bool, rels []gdo.ObjectRelease) ([]gdo.Event, []gdo.PageStamp, []ids.ObjectID, error) {
	if commit {
		s.AssignCommitSeq(family)
	}
	if len(rels) == 0 {
		return nil, nil, nil, nil
	}
	if len(s.shards) == 1 {
		events, stamps, kept, err := s.shards[0].ReleaseKeep(family, site, false, keep, rels)
		return stamp(0, events), stamps, kept, err
	}

	// Fast path: batches addressed to a single partition (the node engine
	// already sends one ReleaseReq per (home, shard)) skip the grouping
	// allocation.
	if sh, ok := singleShardOf(s.place, rels); ok {
		events, stamps, kept, err := s.shards[sh].ReleaseKeep(family, site, false, keep, rels)
		if err != nil {
			return nil, nil, nil, err
		}
		events = stamp(sh, events)
		events = append(events, s.sweep()...)
		return events, stamps, kept, nil
	}

	byShard := make(map[int][]gdo.ObjectRelease)
	for _, rel := range rels {
		sh := s.place.ShardOf(rel.Obj)
		byShard[sh] = append(byShard[sh], rel)
	}
	var events []gdo.Event
	var stamps []gdo.PageStamp
	var kept []ids.ObjectID
	for sh := 0; sh < len(s.shards); sh++ {
		part, ok := byShard[sh]
		if !ok {
			continue
		}
		ev, st, k, err := s.shards[sh].ReleaseKeep(family, site, false, keep, part)
		if err != nil {
			return nil, nil, nil, err
		}
		events = append(events, stamp(sh, ev)...)
		stamps = append(stamps, st...)
		kept = append(kept, k...)
	}
	events = append(events, s.sweep()...)
	return events, stamps, kept, nil
}

// singleShardOf reports whether every release in the batch homes to one
// partition, and which.
//
//lotec:noalloc
func singleShardOf(p Placement, rels []gdo.ObjectRelease) (int, bool) {
	if len(rels) == 0 {
		return 0, false
	}
	sh := p.ShardOf(rels[0].Obj)
	for _, rel := range rels[1:] {
		if p.ShardOf(rel.Obj) != sh {
			return 0, false
		}
	}
	return sh, true
}

// DebugDump renders every shard's lock state.
func (s *Sharded) DebugDump() string {
	if len(s.shards) == 1 {
		return s.shards[0].DebugDump()
	}
	var b strings.Builder
	for i, sh := range s.shards {
		d := sh.DebugDump()
		if d == "" {
			continue
		}
		fmt.Fprintf(&b, "shard %d:\n%s", i, d)
	}
	return b.String()
}
