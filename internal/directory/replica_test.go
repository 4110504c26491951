package directory

import (
	"math"
	"testing"
	"time"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/o2pl"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// Unit tests for the replicated control plane below the sim harness:
// placement-map construction, epoch discipline, promotion, and handoff,
// driven by hand-written wire traffic over a deterministic SimNet.

// repBed is a minimal replicated deployment: node 1 is the client, nodes
// 2..1+len(hosts) are directory hosts serving the given initial map.
type repBed struct {
	net   *transport.SimNet
	rec   *stats.Recorder
	hosts map[ids.NodeID]*Host
	place Placement
	m     wire.PlacementMap
}

func newRepBed(t *testing.T, nHosts, shards int, m wire.PlacementMap) *repBed {
	t.Helper()
	return newRepBedRetaining(t, nHosts, shards, m, false)
}

// newRepBedRetaining is newRepBed with the hosts' site-retained grants on
// or off.
func newRepBedRetaining(t *testing.T, nHosts, shards int, m wire.PlacementMap, retain bool) *repBed {
	t.Helper()
	rec := stats.NewRecorder()
	net := transport.NewSimNet(1+nHosts, netmodel.Ethernet100.WithSoftwareCost(10*time.Microsecond), rec)
	b := &repBed{
		net:   net,
		rec:   rec,
		hosts: make(map[ids.NodeID]*Host),
		place: NewPlacement(shards, 1),
		m:     m,
	}
	for i := 0; i < nHosts; i++ {
		id := ids.NodeID(2 + i)
		h := NewHost(HostConfig{Env: net.Env(id), Place: b.place, Map: m, Rec: rec, RetainGrants: retain})
		b.hosts[id] = h
		net.SetAsyncHandler(id, h.Handler())
	}
	return b
}

// register installs obj in every host's replica (the deployment-wide
// pre-traffic registration).
func (b *repBed) register(t *testing.T, obj ids.ObjectID, numPages int) {
	t.Helper()
	for _, h := range b.hosts {
		if err := h.RegisterLocal(obj, numPages, 1); err != nil {
			t.Fatalf("register %v: %v", obj, err)
		}
	}
}

// client runs fn as a proc on node 1 and drives the net to quiescence.
func (b *repBed) client(t *testing.T, fn func(env transport.Env, rt *RouteTable)) {
	t.Helper()
	env := b.net.Env(1)
	rt := NewRouteTable(env, b.rec, b.m)
	env.Go(func() { fn(env, rt) })
	if err := b.net.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func acquire(t *testing.T, rt *RouteTable, place Placement, obj ids.ObjectID, fam ids.FamilyID, mode o2pl.Mode) *wire.AcquireResp {
	t.Helper()
	reply, err := rt.Call(place.ShardOf(obj), &wire.AcquireReq{
		Obj: obj, Ref: ids.TxRef{Tx: ids.TxID(fam), Node: 1},
		Family: fam, Age: uint64(fam), Site: 1, Mode: mode,
		Shard: int32(place.ShardOf(obj)),
	})
	if err != nil {
		t.Fatalf("acquire %v: %v", obj, err)
	}
	ar, ok := reply.(*wire.AcquireResp)
	if !ok {
		t.Fatalf("acquire %v: reply %T", obj, reply)
	}
	return ar
}

func release(t *testing.T, rt *RouteTable, place Placement, obj ids.ObjectID, fam ids.FamilyID, dirty []ids.PageNum) {
	t.Helper()
	reply, err := rt.Call(place.ShardOf(obj), &wire.ReleaseReq{
		Family: fam, Site: 1, Commit: true,
		Shard: int32(place.ShardOf(obj)),
		Rels:  []gdo.ObjectRelease{{Obj: obj, Dirty: dirty}},
	})
	if err != nil {
		t.Fatalf("release %v: %v", obj, err)
	}
	if _, ok := reply.(*wire.ReleaseResp); !ok {
		t.Fatalf("release %v: reply %T", obj, reply)
	}
}

// TestInitialMapShapes pins the deterministic placement-map layouts: the
// same inputs always yield the same map (byte-for-byte — re-running a
// deployment re-derives it), the single-host map has no backups, and the
// spread layout rings primaries and backups across hosts.
func TestInitialMapShapes(t *testing.T) {
	hosts := []ids.NodeID{5, 6, 7}
	a := InitialMap(4, 4, hosts, true)
	bm := InitialMap(4, 4, hosts, true)
	if !a.Equal(bm) {
		t.Fatalf("InitialMap not deterministic: %+v vs %+v", a, bm)
	}
	if a.Epoch != 1 {
		t.Errorf("initial epoch = %d, want 1", a.Epoch)
	}
	for s := 0; s < 4; s++ {
		if a.Primary[s] == a.Backup[s] {
			t.Errorf("shard %d: primary == backup == %v", s, a.Primary[s])
		}
		want := hosts[(s+1)%len(hosts)]
		if a.Backup[s] != want {
			t.Errorf("shard %d backup = %v, want ring successor %v", s, a.Backup[s], want)
		}
	}
	// Clone is independent: mutating it must not alias the original.
	c := a.Clone()
	c.Primary[0] = 99
	if a.Primary[0] == 99 {
		t.Error("Clone aliases Primary slice")
	}
	// Single host: relocatable but unreplicated — no backups anywhere.
	solo := InitialMap(3, 2, []ids.NodeID{9}, false)
	for s := 0; s < 3; s++ {
		if solo.Primary[s] != 9 || solo.Backup[s] != ids.NoNode {
			t.Errorf("solo shard %d = %v/%v, want 9/NoNode", s, solo.Primary[s], solo.Backup[s])
		}
	}
	// Unspread: everything on the first host, backed by the second.
	packed := InitialMap(2, 2, hosts, false)
	for s := 0; s < 2; s++ {
		if packed.Primary[s] != 5 || packed.Backup[s] != 6 {
			t.Errorf("packed shard %d = %v/%v, want 5/6", s, packed.Primary[s], packed.Backup[s])
		}
	}
}

// TestReplicatedSingleShard runs acquire/release traffic through a
// single-shard primary/backup pair (the smallest replicated topology) and
// requires the backup's directory to track the primary's byte-for-byte:
// same page versions, both drained, epoch untouched.
func TestReplicatedSingleShard(t *testing.T) {
	m := InitialMap(1, 1, []ids.NodeID{2, 3}, false)
	b := newRepBed(t, 2, 1, m)
	obj := ids.ObjectID(1)
	b.register(t, obj, 2)

	b.client(t, func(env transport.Env, rt *RouteTable) {
		if ar := acquire(t, rt, b.place, obj, 10, o2pl.Write); ar.Status != gdo.GrantedNow {
			t.Errorf("acquire status = %v, want GrantedNow", ar.Status)
		}
		release(t, rt, b.place, obj, 10, []ids.PageNum{0, 1})
		ar := acquire(t, rt, b.place, obj, 11, o2pl.Read)
		if ar.Status != gdo.GrantedNow {
			t.Errorf("reacquire status = %v, want GrantedNow", ar.Status)
		}
		if ar.LastWriter != 1 {
			t.Errorf("last writer = %v, want 1", ar.LastWriter)
		}
		release(t, rt, b.place, obj, 11, nil)
	})

	pd, ok := b.hosts[2].PrimaryDir(0)
	if !ok {
		t.Fatal("host 2 lost shard 0 primaryship in a fault-free run")
	}
	bd, primary, ok := b.hosts[3].ReplicaDir(0)
	if !ok || primary {
		t.Fatalf("host 3 replica: primary=%v ok=%v, want backup", primary, ok)
	}
	pm, err1 := pd.PageMap(obj)
	bm, err2 := bd.PageMap(obj)
	if err1 != nil || err2 != nil {
		t.Fatalf("page maps: %v / %v", err1, err2)
	}
	for p := range pm {
		if pm[p] != bm[p] {
			t.Errorf("page %d: primary %+v, backup %+v", p, pm[p], bm[p])
		}
	}
	if pm[0].Version == 0 {
		t.Error("committed write left page 0 at version 0")
	}
	if got := b.hosts[2].Map().Epoch; got != 1 {
		t.Errorf("epoch = %d after fault-free run, want 1", got)
	}
	if d := b.hosts[2].DebugDump(); d != "" {
		t.Errorf("primary not drained:\n%s", d)
	}
}

// TestPromotionIdempotent drives promotion directly: the backup bumps the
// epoch exactly once no matter how many clients demand it, the deposed
// primary refuses new-epoch traffic with a redirect, and the promoted
// backup serves it.
func TestPromotionIdempotent(t *testing.T) {
	m := InitialMap(1, 1, []ids.NodeID{2, 3}, false)
	b := newRepBed(t, 2, 1, m)
	obj := ids.ObjectID(1)
	b.register(t, obj, 1)

	b.client(t, func(env transport.Env, rt *RouteTable) {
		promote := func() wire.PlacementMap {
			reply, err := env.Call(3, &wire.PromoteReq{Dead: 2, Epoch: 1})
			if err != nil {
				t.Fatalf("promote: %v", err)
			}
			pr, ok := reply.(*wire.PromoteResp)
			if !ok {
				t.Fatalf("promote reply %T", reply)
			}
			return pr.Map
		}
		m1 := promote()
		m2 := promote()
		if m1.Epoch != 2 || !m1.Equal(m2) {
			t.Errorf("promotion maps: %+v then %+v, want identical epoch-2", m1, m2)
		}
		if m1.Primary[0] != 3 || m1.Backup[0] != ids.NoNode {
			t.Errorf("post-promotion shard 0 = %v/%v, want 3/NoNode", m1.Primary[0], m1.Backup[0])
		}

		// The old primary must refuse an op stamped with the new epoch —
		// its redirect carries its own (older) map, which the client does
		// not adopt.
		req := &wire.AcquireReq{
			Obj: obj, Ref: ids.TxRef{Tx: 20, Node: 1}, Family: 20, Age: 20,
			Site: 1, Mode: o2pl.Read, Shard: 0, Epoch: m1.Epoch,
		}
		reply, err := env.Call(2, req)
		if err != nil {
			t.Fatalf("stale-primary call: %v", err)
		}
		rr, ok := reply.(*wire.RouteResp)
		if !ok {
			t.Fatalf("deposed primary answered %T, want RouteResp", reply)
		}
		if rr.Map.Epoch >= m1.Epoch {
			t.Errorf("deposed primary claims epoch %d >= %d", rr.Map.Epoch, m1.Epoch)
		}

		// Through the route table: the client adopts the promotion map and
		// the new primary serves the request.
		if !rt.Adopt(m1) {
			t.Error("route table refused the newer promotion map")
		}
		if ar := acquire(t, rt, b.place, obj, 21, o2pl.Read); ar.Status != gdo.GrantedNow {
			t.Errorf("post-promotion acquire = %v, want GrantedNow", ar.Status)
		}
		release(t, rt, b.place, obj, 21, nil)
	})

	if got := b.rec.Counters().Promotions; got != 1 {
		t.Errorf("promotions = %d, want exactly 1 (idempotent)", got)
	}
	if got := b.rec.Counters().EpochRejects; got < 1 {
		t.Errorf("epoch rejects = %d, want >= 1 (stale primary refused)", got)
	}
}

// TestEpochMonotonicNearRollover starts the deployment at the top of the
// epoch range: bumps stay strictly monotonic and a map whose epoch wrapped
// around to a small value is refused by every adoption guard.
func TestEpochMonotonicNearRollover(t *testing.T) {
	const high = uint64(math.MaxUint64 - 4)
	m := InitialMap(1, 1, []ids.NodeID{2, 3}, false)
	m.Epoch = high
	b := newRepBed(t, 2, 1, m)
	obj := ids.ObjectID(1)
	b.register(t, obj, 1)

	b.client(t, func(env transport.Env, rt *RouteTable) {
		reply, err := env.Call(3, &wire.PromoteReq{Dead: 2, Epoch: high})
		if err != nil {
			t.Fatalf("promote: %v", err)
		}
		pr, ok := reply.(*wire.PromoteResp)
		if !ok {
			t.Fatalf("promote reply %T", reply)
		}
		if pr.Map.Epoch != high+1 {
			t.Errorf("promotion epoch = %d, want %d", pr.Map.Epoch, high+1)
		}
		if !rt.Adopt(pr.Map) {
			t.Error("route table refused the strictly newer map")
		}
		// A wrapped map (epoch restarted from 1) must never displace the
		// high-epoch view.
		wrapped := pr.Map.Clone()
		wrapped.Epoch = 1
		if rt.Adopt(wrapped) {
			t.Error("route table adopted a wrapped (older) epoch")
		}
		if got := rt.Epoch(); got != high+1 {
			t.Errorf("route epoch = %d, want %d", got, high+1)
		}
		// Ops stamped with the adopted high epoch still flow.
		if ar := acquire(t, rt, b.place, obj, 30, o2pl.Read); ar.Status != gdo.GrantedNow {
			t.Errorf("high-epoch acquire = %v, want GrantedNow", ar.Status)
		}
		release(t, rt, b.place, obj, 30, nil)
	})
}

// TestHandoffPreservesReleasedState commits a write, hands the shard off
// to a fresh host, and re-acquires through the new primary: the page
// versions and last-writer recorded before the move must survive it (the
// released-then-reacquired-across-a-handoff-boundary edge case).
func TestHandoffPreservesReleasedState(t *testing.T) {
	// Hosts 2 (primary), 3 (backup = witness), 4 (target, initially idle).
	m := InitialMap(1, 1, []ids.NodeID{2, 3}, false)
	b := newRepBed(t, 3, 1, m)
	obj := ids.ObjectID(1)
	b.register(t, obj, 2)

	b.client(t, func(env transport.Env, rt *RouteTable) {
		if ar := acquire(t, rt, b.place, obj, 40, o2pl.Write); ar.Status != gdo.GrantedNow {
			t.Fatalf("acquire = %v, want GrantedNow", ar.Status)
		}
		release(t, rt, b.place, obj, 40, []ids.PageNum{1})

		reply, err := rt.Call(0, &wire.HandoffStartReq{Shard: 0, Target: 4})
		if err != nil {
			t.Fatalf("handoff: %v", err)
		}
		hr, ok := reply.(*wire.HandoffStartResp)
		if !ok {
			t.Fatalf("handoff reply %T", reply)
		}
		if !hr.OK || hr.StateBytes == 0 {
			t.Fatalf("handoff OK=%v bytes=%d, want accepted with state", hr.OK, hr.StateBytes)
		}
		rt.Adopt(hr.Map)
		if got := rt.Map().Primary[0]; got != 4 {
			t.Fatalf("post-handoff primary = %v, want 4", got)
		}

		// Reacquire through the new primary: the committed state moved.
		ar := acquire(t, rt, b.place, obj, 41, o2pl.Read)
		if ar.Status != gdo.GrantedNow {
			t.Fatalf("post-handoff acquire = %v, want GrantedNow", ar.Status)
		}
		if ar.LastWriter != 1 {
			t.Errorf("post-handoff last writer = %v, want 1", ar.LastWriter)
		}
		if len(ar.PageMap) != 2 || ar.PageMap[1].Version == 0 {
			t.Errorf("post-handoff page map %+v lost the committed version", ar.PageMap)
		}
		release(t, rt, b.place, obj, 41, nil)
	})

	if _, ok := b.hosts[4].PrimaryDir(0); !ok {
		t.Error("target host 4 did not become shard 0 primary")
	}
	if _, ok := b.hosts[2].PrimaryDir(0); ok {
		t.Error("old primary host 2 still claims shard 0")
	}
	if got := b.hosts[4].Map().Epoch; got < 2 {
		t.Errorf("target epoch = %d, want >= 2", got)
	}
	hs := b.rec.Handoffs()
	if len(hs) != 1 || hs[0].Bytes == 0 {
		t.Errorf("recorded handoffs = %+v, want one sample with bytes", hs)
	}
}
