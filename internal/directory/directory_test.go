package directory

import (
	"reflect"
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

func TestPlacement(t *testing.T) {
	p := NewPlacement(4, 8)
	for obj := ids.ObjectID(-5); obj < 40; obj++ {
		if s := p.ShardOf(obj); s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%v) = %d outside [0,4)", obj, s)
		}
	}
	// The cost model's home assignment is one formula, the same at every
	// shard count, and spreads objects over every node.
	t.Run("HomeNodePartitioning", func(t *testing.T) {
		one := NewPlacement(1, 8)
		homes := map[ids.NodeID]bool{}
		for obj := ids.ObjectID(-5); obj < 40; obj++ {
			h := p.HomeNode(obj)
			if h < 1 || h > 8 {
				t.Fatalf("HomeNode(%v) = %v outside [1,8]", obj, h)
			}
			if want := one.HomeNode(obj); h != want {
				t.Errorf("HomeNode(%v) = %v at 4 shards, %v at 1", obj, h, want)
			}
			homes[h] = true
		}
		if len(homes) != 8 {
			t.Errorf("objects homed at %d of 8 nodes", len(homes))
		}
	})
	// Shards == Nodes: the objects homed at one node form exactly one shard.
	q := NewPlacement(8, 8)
	for obj := ids.ObjectID(0); obj < 64; obj++ {
		if got, want := q.ShardOf(obj), int(q.HomeNode(obj))-1; got != want {
			t.Errorf("ShardOf(%v) = %d, HomeNode-1 = %d", obj, got, want)
		}
	}
	if d := NewPlacement(0, 0); d.Shards != 1 || d.Nodes != 1 {
		t.Errorf("zero placement normalized to %+v", d)
	}
}

// TestSingleShardDelegation: Sharded, which the repo benchmark's directory
// probes drive, is one gdo.Directory and nothing more. Asked for more than
// one shard it panics: a partitioned directory is a Host's.
func TestSingleShardDelegation(t *testing.T) {
	s := NewSharded(1, 4)
	if err := s.Register(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	res, ev, err := s.Acquire(1, ids.TxRef{Tx: 10, Node: 1}, 10, 10, 1, o2pl.Write)
	if err != nil || res.Status != gdo.GrantedNow || len(ev) != 0 {
		t.Fatalf("acquire: %+v, %v, %v", res, ev, err)
	}
	if st, err := s.Directory.State(1); err != nil || st != gdo.HeldWrite {
		t.Errorf("the wrapped directory reports %v, %v; want held-write", st, err)
	}
	if seq := s.AssignCommitSeq(10); seq != 0 {
		t.Errorf("AssignCommitSeq = %d, want the stub's 0", seq)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSharded(2, 4) did not panic")
		}
	}()
	NewSharded(2, 4)
}

// TestServeAcquireUnregistered: an acquire or an adopt of an object the
// directory does not know is answered gdo.Unregistered, with no error and
// no events, and changes nothing; once the object is registered the same
// request is granted. Through a host's front door the reply is the same.
func TestServeAcquireUnregistered(t *testing.T) {
	for _, adopt := range []bool{false, true} {
		dir := gdo.New(1)
		req := &wire.AcquireReq{Obj: 4, Ref: ids.TxRef{Tx: 10, Node: 1}, Family: 10, Age: 10, Site: 1, Mode: o2pl.Write, Shard: 2, Adopt: adopt}
		resp, ev, err := ServeAcquire(dir, req)
		if err != nil || len(ev) != 0 {
			t.Fatalf("adopt=%v: ServeAcquire of an unknown object: events %v, error %v", adopt, ev, err)
		}
		if resp.Status != gdo.Unregistered || resp.Obj != 4 || resp.Shard != 2 {
			t.Fatalf("adopt=%v: reply %+v, want status %v for object 4 on shard 2", adopt, resp, gdo.Unregistered)
		}
		if objs := dir.Objects(); len(objs) != 0 {
			t.Fatalf("adopt=%v: the directory now knows %v", adopt, objs)
		}
		if adopt {
			continue
		}
		if err := dir.Register(4, 1, 1); err != nil {
			t.Fatal(err)
		}
		if resp, _, err := ServeAcquire(dir, req); err != nil || resp.Status != gdo.GrantedNow {
			t.Fatalf("after registration: %+v, %v; want granted", resp, err)
		}
	}

	b := newTier1(t, 2, false)
	if resp := b.acquireAt(t, 1, 5, 10, 10, false); resp.Status != gdo.Unregistered {
		t.Fatalf("host reply to an acquire of an unknown object: %v, want %v", resp.Status, gdo.Unregistered)
	}
	b.register(t, 5, 1)
	if resp := b.acquireAt(t, 1, 5, 10, 10, false); resp.Status != gdo.GrantedNow {
		t.Fatalf("host reply after registration: %v, want granted", resp.Status)
	}
}

// The directory a lotec-gdo -shards N runs is one Host that is primary for
// every shard, so a cycle across its shards is tier 1's to find (coord.go).
// newTier1 stands one up over a SimNet, serving sites 1 and 2 (node 3 is the
// host), registers objs one page each, and watches what the host sends the
// sites.
func newTier1(t *testing.T, shards int, retain bool, objs ...ids.ObjectID) *repBed {
	t.Helper()
	const sites = 2
	b := newBed(t, sites, 1, shards, InitialMap(shards, 1, []ids.NodeID{sites + 1}, false), retain)
	for _, obj := range objs {
		b.register(t, obj, 1)
	}
	b.watchSites(t, sites)
	return b
}

// watchSites makes sites 1..sites collect every grant, abort and recall the
// hosts send them into b.events, in delivery order.
func (b *repBed) watchSites(t *testing.T, sites int) {
	for i := 1; i <= sites; i++ {
		site := ids.NodeID(i)
		b.net.SetHandler(site, func(_ ids.NodeID, m wire.Msg) wire.Msg {
			switch e := m.(type) {
			case *wire.Grant:
				b.events = append(b.events, doorEvent{gdo.EventGrant, e.Family, e.Obj, e.Shard, site})
			case *wire.Abort:
				b.events = append(b.events, doorEvent{gdo.EventDeadlockAbort, e.Family, e.Obj, e.Shard, site})
			case *wire.Recall:
				b.events = append(b.events, doorEvent{gdo.EventRecall, e.Family, e.Obj, e.Shard, site})
			default:
				t.Errorf("site %v received %T", site, m)
			}
			return nil
		})
	}
}

// takeEvents returns the events the sites received since the last call.
func (b *repBed) takeEvents() []doorEvent {
	ev := b.events
	b.events = nil
	return ev
}

// acquireAt has family f, of deadlock age age, at site ask for obj in write
// mode — as an Adopt when adopt is set — in one wire request driven to
// quiescence.
func (b *repBed) acquireAt(t *testing.T, site ids.NodeID, obj ids.ObjectID, f ids.FamilyID, age uint64, adopt bool) *wire.AcquireResp {
	t.Helper()
	shard := b.place.ShardOf(obj)
	var resp *wire.AcquireResp
	b.clientAt(t, site, func(_ transport.Env, rt *RouteTable) {
		reply, err := rt.Call(shard, &wire.AcquireReq{
			Obj: obj, Ref: ids.TxRef{Tx: ids.TxID(f), Node: site}, Family: f, Age: age,
			Site: site, Mode: o2pl.Write, Shard: int32(shard), Adopt: adopt,
		})
		resp, _ = reply.(*wire.AcquireResp)
		if err != nil || resp == nil {
			t.Errorf("acquire of %v by %v: %T, %v", obj, f, reply, err)
		}
	})
	if resp == nil {
		t.FailNow()
	}
	return resp
}

// releaseAt has family f at site release objs, all on one shard, in one
// wire request driven to quiescence; each object's page 0 is dirty when
// commit is set.
func (b *repBed) releaseAt(t *testing.T, site ids.NodeID, f ids.FamilyID, commit bool, objs ...ids.ObjectID) *wire.ReleaseResp {
	t.Helper()
	shard := b.place.ShardOf(objs[0])
	rels := make([]gdo.ObjectRelease, len(objs))
	for i, obj := range objs {
		rels[i].Obj = obj
		if commit {
			rels[i].Dirty = []ids.PageNum{0}
		}
	}
	var resp *wire.ReleaseResp
	b.clientAt(t, site, func(_ transport.Env, rt *RouteTable) {
		reply, err := rt.Call(shard, &wire.ReleaseReq{Family: f, Site: site, Commit: commit, Shard: int32(shard), Rels: rels})
		resp, _ = reply.(*wire.ReleaseResp)
		if err != nil || resp == nil {
			t.Errorf("release of %v by %v: %T, %v", objs, f, reply, err)
		}
	})
	if resp == nil {
		t.FailNow()
	}
	return resp
}

// crossShardCycle stands up the canonical two-family, two-shard deadlock on
// a tier-1 host: famA (at site 1) holds object 2 (shard 0) and famB (at
// site 2) holds object 3 (shard 1); then B parks behind A on object 2.
// Neither shard alone sees a cycle until A requests object 3.
func crossShardCycle(t *testing.T, ageA, ageB uint64) *repBed {
	t.Helper()
	b := newTier1(t, 2, false, 2, 3)
	if b.place.ShardOf(2) != 0 || b.place.ShardOf(3) != 1 {
		t.Fatalf("placement: O2→%d O3→%d, want 0 and 1", b.place.ShardOf(2), b.place.ShardOf(3))
	}
	for _, st := range []struct {
		obj  ids.ObjectID
		f    ids.FamilyID
		age  uint64
		site ids.NodeID
		want gdo.AcquireStatus
	}{
		{2, 100, ageA, 1, gdo.GrantedNow},
		{3, 200, ageB, 2, gdo.GrantedNow},
		{2, 200, ageB, 2, gdo.Queued},
	} {
		if res := b.acquireAt(t, st.site, st.obj, st.f, st.age, false); res.Status != st.want {
			t.Fatalf("acquire of %v by fam %v: %v, want %v", st.obj, st.f, res.Status, st.want)
		}
	}
	if ev := b.takeEvents(); len(ev) != 0 {
		t.Fatalf("setting up the cycle raised %+v", ev)
	}
	return b
}

// TestCrossShardDeadlockAbortsYoungest: A is older, so when A's request for
// object 3 closes the inter-shard cycle, the host must pick B (youngest) as
// victim and cancel its shard-0 wait.
func TestCrossShardDeadlockAbortsYoungest(t *testing.T) {
	b := crossShardCycle(t, 1, 2) // ageA=1 (older), ageB=2 (youngest)

	if res := b.acquireAt(t, 1, 3, 100, 1, false); res.Status != gdo.Queued {
		t.Fatalf("A's closing request: status %v, want Queued", res.Status)
	}
	want := []doorEvent{{gdo.EventDeadlockAbort, 200, 2, 0, 2}}
	if ev := b.takeEvents(); !reflect.DeepEqual(ev, want) {
		t.Fatalf("victim events = %+v, want %+v: fam 200's wait on O2 (shard 0) aborted at site 2", ev, want)
	}

	// B's site reacts by aborting the family: releasing its holds must
	// grant object 3 to the still-queued A.
	b.releaseAt(t, 2, 200, false, 3)
	want = []doorEvent{{gdo.EventGrant, 100, 3, 1, 1}}
	if ev := b.takeEvents(); !reflect.DeepEqual(ev, want) {
		t.Fatalf("post-abort release events = %+v, want %+v: O3 (shard 1) granted to fam 100", ev, want)
	}
}

// TestCrossShardDeadlockSelfVictim: A is the youngest, so A's own closing
// request is refused with DeadlockAbort and its parked state is purged from
// every shard, leaving B's wait intact.
func TestCrossShardDeadlockSelfVictim(t *testing.T) {
	b := crossShardCycle(t, 2, 1) // ageA=2 (youngest), ageB=1

	if res := b.acquireAt(t, 1, 3, 100, 2, false); res.Status != gdo.DeadlockAbort {
		t.Fatalf("youngest requester: status %v, want DeadlockAbort", res.Status)
	}
	if ev := b.takeEvents(); len(ev) != 0 {
		t.Fatalf("self-victim must abort silently, got events %+v", ev)
	}

	// A aborts and hands back object 2: B's surviving wait is granted.
	b.releaseAt(t, 1, 100, false, 2)
	want := []doorEvent{{gdo.EventGrant, 200, 2, 0, 2}}
	if ev := b.takeEvents(); !reflect.DeepEqual(ev, want) {
		t.Fatalf("release events = %+v, want %+v", ev, want)
	}

	// A's purged request must be gone from shard 1: when B finishes, object
	// 3 goes Free instead of to the phantom waiter.
	b.releaseAt(t, 2, 200, false, 2)
	b.releaseAt(t, 2, 200, false, 3)
	if ev := b.takeEvents(); len(ev) != 0 {
		t.Errorf("B's releases raised %+v", ev)
	}
	dir, _ := b.hosts[3].PrimaryDir(1)
	if st, err := dir.State(3); err != nil || st != gdo.Free {
		t.Errorf("O3 state = %v, %v, want Free", st, err)
	}
}

// TestRouterCommitOrder: the host keeps no commit order across its shards;
// the page versions are the order. One committing family's per-shard
// batches each advance their own pages by exactly one, and a later family's
// release of a shared object stamps the version after it.
func TestRouterCommitOrder(t *testing.T) {
	b := newTier1(t, 2, false, 2, 3)
	acquire := func(obj ids.ObjectID, f ids.FamilyID) {
		t.Helper()
		if res := b.acquireAt(t, 1, obj, f, uint64(f), false); res.Status != gdo.GrantedNow {
			t.Fatalf("acquire %v by %v: %v", obj, f, res.Status)
		}
	}
	var stamps []gdo.PageStamp
	release := func(f ids.FamilyID, objs ...ids.ObjectID) {
		t.Helper()
		for _, o := range objs { // one batch per shard, like the engine
			stamps = append(stamps, b.releaseAt(t, 1, f, true, o).Stamps...)
		}
	}
	acquire(2, 10)
	acquire(3, 10)
	release(10, 3, 2) // either batch may go first
	acquire(2, 20)
	release(20, 2)

	want := []gdo.PageStamp{{Obj: 3, Page: 0, Version: 2}, {Obj: 2, Page: 0, Version: 2}, {Obj: 2, Page: 0, Version: 3}}
	if !reflect.DeepEqual(stamps, want) {
		t.Errorf("stamps = %+v, want %+v", stamps, want)
	}
}
