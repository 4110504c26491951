// Package directory implements the *partitioned* Global Directory of
// Objects the paper describes in §4.1 ("the GDO may be partitioned and
// replicated for scalability and reliability"). Package gdo keeps one
// partition's worth of directory logic — Figure 1 entries, Algorithm 4.2
// acquisition and Algorithm 4.4 release — in a single structure guarded by
// a single mutex; this package scales it out behind the wire. A Host
// (host.go) serves the shards a placement map assigns it, one
// gdo.Directory each, as primary or backup; the TCP directory server is one
// Host that is primary for every shard, and the simulator's dedicated
// topology runs one or more. The co-located simulator needs none of this:
// its engines share one gdo.Directory.
//
// Three concerns span shards and live here:
//
//   - Placement: deterministic object→shard assignment (ShardOf), kept
//     consistent with the cost model's object→home-node assignment
//     (HomeNode) so the simulation charges global lock traffic to the same
//     partition the deployment would consult.
//   - Inter-family deadlock detection across shards: each shard detects
//     cycles among its own waiters, and a host additionally appends its
//     shards' waits-for edges to one union graph (gdo.Directory.AppendWaits)
//     and runs the shards' own search over it, so a cycle whose edges
//     straddle shards is still found and the youngest family on it is still
//     the victim. See detect.go and coord.go.
//   - The wire form of the lock service (serve.go) and the route table that
//     addresses each shard's current primary (route.go).
//
// There is no commit order to keep across shards: strict nested O2PL holds
// every lock of a family until its root commits, so the serialization order
// is already in the page versions each shard stamps (package history reads
// it back). A family's committing releases to different shards are
// independent.
package directory

import (
	"fmt"

	"lotec/internal/gdo"
	"lotec/internal/ids"
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
func (p Placement) ShardOf(obj ids.ObjectID) int {
	s := int(int64(obj) % int64(p.Shards))
	if s < 0 {
		s += p.Shards
	}
	return s
}

// HomeNode returns the node global lock messages for obj are charged to:
// the one home formula of the cost model, independent of the shard count,
// so per-object message attribution (Figures 6–8 re-pricing) is identical
// at every shard count.
func (p Placement) HomeNode(obj ids.ObjectID) ids.NodeID {
	h := int64(obj) % int64(p.Nodes)
	if h < 0 {
		h += int64(p.Nodes)
	}
	return ids.NodeID(h) + 1
}

// Sharded is one gdo.Directory under the name the repo benchmark's
// directory probes compile against. It is not a router: a partitioned
// directory is a Host's. ROADMAP item 3(a1) deletes it with the probe.
type Sharded struct{ *gdo.Directory }

// NewSharded returns one directory for a cluster of nodes sites. It panics
// for more than one shard.
func NewSharded(shards, nodes int) *Sharded {
	if shards > 1 {
		panic(fmt.Sprintf("directory: NewSharded(%d, %d): the in-process directory has one shard; a partitioned one is a Host's", shards, nodes))
	}
	return &Sharded{gdo.New(nodes)}
}

// AssignCommitSeq keeps no state and returns 0; nothing in the program calls
// it. It stays only for the repo benchmark's directory.commit_seq_ns probe,
// and ROADMAP item 3(a1) deletes the two together.
func (s *Sharded) AssignCommitSeq(ids.FamilyID) uint64 { return 0 }
