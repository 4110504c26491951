package directory

import (
	"bytes"
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// Site-retained grants (gdo/retain.go) through the router and through the
// replicated host.

// commitAt runs family f through one committing write of obj at site and
// reports what the release left there.
func commitAt(t *testing.T, s *Sharded, obj ids.ObjectID, f ids.FamilyID, site ids.NodeID) []ids.ObjectID {
	t.Helper()
	if res, _, err := s.Acquire(obj, ids.TxRef{Tx: f, Node: site}, f, uint64(f), site, o2pl.Write); err != nil || res.Status != gdo.GrantedNow {
		t.Fatalf("acquire of %v by %v: %v, %v", obj, f, res.Status, err)
	}
	_, _, kept, err := s.ReleaseKeep(f, site, true, true, []gdo.ObjectRelease{{Obj: obj, Dirty: []ids.PageNum{0}}})
	if err != nil {
		t.Fatalf("release of %v by %v: %v", obj, f, err)
	}
	return kept
}

// TestShardedRetentionIsOffUnlessSwitchedOn: the paper's directory keeps
// nothing, through either release entry point.
func TestShardedRetentionIsOffUnlessSwitchedOn(t *testing.T) {
	s := NewSharded(2, 2)
	if err := s.Register(2, 1, 1); err != nil {
		t.Fatal(err)
	}
	for f := ids.FamilyID(1); f <= gdo.KeepStreak+2; f++ {
		if kept := commitAt(t, s, 2, f, 1); len(kept) != 0 {
			t.Fatalf("a directory with retention off kept %v", kept)
		}
	}
	if dump := s.DebugDump(); dump != "" {
		t.Fatalf("not drained:\n%s", dump)
	}
}

// TestShardedCrossShardDeadlockThroughAdopt: object 2 (shard 0) is retained
// by site 1 and family F runs on it; G at site 2 holds object 3 (shard 1).
// F queues for 3, G queues for 2 behind the site hold: no shard, and not
// the router's union graph either, sees a cycle, because the site hold
// waits for nobody. The Adopt the recall triggers names F as the holder,
// and the router's sweep after it breaks the cycle.
func TestShardedCrossShardDeadlockThroughAdopt(t *testing.T) {
	s := NewSharded(2, 2)
	s.SetRetainGrants(true)
	for _, o := range []ids.ObjectID{2, 3} {
		if err := s.Register(o, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	for f := ids.FamilyID(1); f <= gdo.KeepStreak; f++ {
		kept := commitAt(t, s, 2, f, 1)
		if want := f == gdo.KeepStreak; (len(kept) == 1) != want {
			t.Fatalf("release %d kept %v", f, kept)
		}
	}
	if _, ok := s.Shard(0).CommitSeq(gdo.KeepStreak); ok {
		t.Error("a partition of the router assigned a commit sequence")
	}
	if seq, ok := s.CommitSeq(gdo.KeepStreak); !ok || seq != gdo.KeepStreak {
		t.Errorf("router: family %d has sequence %d, %v", gdo.KeepStreak, seq, ok)
	}

	const F, G = ids.FamilyID(10), ids.FamilyID(11) // F runs on the retained grant: no acquire
	if res, _, err := s.Acquire(3, ids.TxRef{Tx: G, Node: 2}, G, uint64(G), 2, o2pl.Write); err != nil || res.Status != gdo.GrantedNow {
		t.Fatalf("G's acquire of 3: %v, %v", res.Status, err)
	}
	if res, ev, err := s.Acquire(3, ids.TxRef{Tx: F, Node: 1}, F, uint64(F), 1, o2pl.Write); err != nil || res.Status != gdo.Queued || len(ev) != 0 {
		t.Fatalf("F's acquire of 3: %v, %v, %v", res.Status, ev, err)
	}
	res, ev, err := s.Acquire(2, ids.TxRef{Tx: G, Node: 2}, G, uint64(G), 2, o2pl.Write)
	if err != nil || res.Status != gdo.Queued {
		t.Fatalf("G's acquire of 2: %v, %v", res.Status, err)
	}
	if len(ev) != 1 || ev[0].Kind != gdo.EventRecall || ev[0].Site != 1 || ev[0].Family != ids.SiteFamily(1) || ev[0].Shard != 0 {
		t.Fatalf("G's acquire of 2 raised %+v, want one recall to site 1 from shard 0", ev)
	}

	res, ev, err = s.Adopt(2, ids.TxRef{Tx: F, Node: 1}, F, uint64(F), 1, o2pl.Write)
	if err != nil || res.Status != gdo.GrantedNow {
		t.Fatalf("adopt: %v, %v", res.Status, err)
	}
	// G is the younger: its wait on object 2 is cancelled.
	if len(ev) != 1 || ev[0].Kind != gdo.EventDeadlockAbort || ev[0].Family != G || ev[0].Obj != 2 {
		t.Fatalf("adopt raised %+v, want G's wait on object 2 aborted", ev)
	}
	// A second Adopt is a repeat grant to the holder F now is; one for a
	// family that never ran on the grant finds nothing to adopt.
	if res, _, err := s.Adopt(2, ids.TxRef{Tx: F, Node: 1}, F, uint64(F), 1, o2pl.Write); err != nil || res.Status != gdo.GrantedNow {
		t.Fatalf("repeated adopt: %v, %v", res.Status, err)
	}
	if res, ev, err := s.Adopt(2, ids.TxRef{Tx: 12, Node: 1}, 12, 12, 1, o2pl.Write); err != nil || res.Status != gdo.NotAdopted || len(ev) != 0 {
		t.Fatalf("late adopt: %v, %v, %v", res.Status, ev, err)
	}
}

// TestBackupReplaysKeepAndPromotedBackupRecalls: the keep is decided again,
// identically, by the backup replaying the release, so a promotion finds the
// site hold the sites believe in; and the promoted backup recalls it for the
// request its dead primary had queued.
func TestBackupReplaysKeepAndPromotedBackupRecalls(t *testing.T) {
	m := InitialMap(1, 1, []ids.NodeID{2, 3}, false)
	b := newRepBedRetaining(t, 2, 1, m, true)
	const obj = ids.ObjectID(1)
	b.register(t, obj, 1)
	// Node 1 is the one site: it collects what the directory sends it.
	var recalls, grants int
	b.net.SetHandler(1, func(_ ids.NodeID, m wire.Msg) wire.Msg {
		switch m.(type) {
		case *wire.Recall:
			recalls++
		case *wire.Grant:
			grants++
		}
		return nil
	})

	b.client(t, func(env transport.Env, rt *RouteTable) {
		for f := ids.FamilyID(1); f <= gdo.KeepStreak; f++ {
			if ar := acquire(t, rt, b.place, obj, f, o2pl.Write); ar.Status != gdo.GrantedNow {
				t.Errorf("acquire by %v: %v", f, ar.Status)
			}
			reply, err := rt.Call(0, &wire.ReleaseReq{Family: f, Site: 1, Commit: true, Rels: []gdo.ObjectRelease{{Obj: obj, Dirty: []ids.PageNum{0}}}})
			if err != nil {
				t.Error(err) // not Fatal: this is a proc of the simulator
				return
			}
			if kept := reply.(*wire.ReleaseResp).Kept; (len(kept) == 1) != (f == gdo.KeepStreak) {
				t.Errorf("release %d kept %v", f, kept)
			}
		}
		primary, _, _ := b.hosts[2].ReplicaDir(0)
		backup, _, _ := b.hosts[3].ReplicaDir(0)
		if !bytes.Equal(primary.Export(), backup.Export()) {
			t.Errorf("backup diverged from primary:\n%s---\n%s", primary.DebugDump(), backup.DebugDump())
		}

		if ar := acquire(t, rt, b.place, obj, 20, o2pl.Write); ar.Status != gdo.Queued {
			t.Errorf("conflicting acquire: %v", ar.Status)
		}
		env.Sleep(1e6)
		if recalls != 1 {
			t.Errorf("%d recalls after the conflicting acquire, want 1", recalls)
		}
		reply, err := env.Call(3, &wire.PromoteReq{Dead: 2, Epoch: 1})
		if err != nil {
			t.Errorf("promote: %v", err)
			return
		}
		rt.Adopt(reply.(*wire.PromoteResp).Map)
		env.Sleep(1e6)
		if recalls != 2 {
			t.Errorf("%d recalls after the promotion, want the queued request recalled again", recalls)
		}
		// The hand-back reaches the new primary and the waiter is granted.
		if _, err := rt.Call(0, &wire.ReleaseReq{Family: ids.SiteFamily(1), Site: 1, Rels: []gdo.ObjectRelease{{Obj: obj}}}); err != nil {
			t.Error(err)
		}
		env.Sleep(1e6)
		if grants != 1 {
			t.Errorf("%d grants after the hand-back, want 1", grants)
		}
	})
}
