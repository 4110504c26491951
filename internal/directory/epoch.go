// Epoch-stamped placement maps for the replicated control plane.
//
// A wire.PlacementMap is the versioned shard→owner assignment every actor
// carries: clients route by it, hosts accept an operation only when the
// client's stamped epoch matches their own and their own map names them
// the shard's primary. The map changes through exactly two transitions —
// backup promotion and shard handoff — and each bumps Epoch by one, so
// "strictly larger epoch" is the single adoption rule everywhere and two
// distinct maps can never share an epoch (promotion is serialized by the
// backup that executes it, handoff by the witness that ratifies it).

package directory

import (
	"lotec/internal/ids"
	"lotec/internal/wire"
)

// InitialMap builds the epoch-1 placement for a replicated deployment:
// shards directory partitions served by the given host nodes over a data
// plane of dataNodes sites. With spread false every shard's primary is
// hosts[0] and its backup hosts[1] (the classic primary/backup pair, extra
// hosts idle as handoff targets); with spread true primaries round-robin
// across all hosts — backups take the next host in the ring — so shard
// ownership crosses host boundaries and cross-host deadlock detection is
// exercised. With a single host there are no backups.
func InitialMap(shards, dataNodes int, hosts []ids.NodeID, spread bool) wire.PlacementMap {
	if shards < 1 {
		shards = 1
	}
	if dataNodes < 1 {
		dataNodes = 1
	}
	m := wire.PlacementMap{
		Epoch:   1,
		Nodes:   int32(dataNodes),
		Primary: make([]ids.NodeID, shards),
		Backup:  make([]ids.NodeID, shards),
	}
	for s := 0; s < shards; s++ {
		pi := 0
		if spread {
			pi = s % len(hosts)
		}
		m.Primary[s] = hosts[pi]
		if len(hosts) > 1 {
			m.Backup[s] = hosts[(pi+1)%len(hosts)]
		} else {
			m.Backup[s] = ids.NoNode
		}
	}
	return m
}

// stampEpoch writes the client's map epoch into the messages that carry
// one; other types pass through unstamped (they are either host-internal,
// already map-bearing, or epoch-free like RegisterReq).
func stampEpoch(m wire.Msg, epoch uint64) {
	switch t := m.(type) {
	case *wire.AcquireReq:
		t.Epoch = epoch
	case *wire.ReleaseReq:
		t.Epoch = epoch
	case *wire.AbortFamilyReq:
		t.Epoch = epoch
	case *wire.PromoteReq:
		t.Epoch = epoch
	case *wire.WaitEdgeUpdate:
		t.Epoch = epoch
	}
}
