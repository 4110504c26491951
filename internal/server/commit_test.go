package server

import (
	"reflect"
	"testing"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// frame is the part of a trace record TestMessagesPerRoot pins.
type frame struct {
	Kind  stats.MsgKind
	Shard int
	Objs  int // objects a release names, or its reply stamps
}

// TestMessagesPerRoot counts the frames of one flat root run at the owner
// of its object, so nothing but the directory is talked to. The committing
// release is the commit point: two round trips per root — acquire and
// release — and, on a multi-shard directory, one more release pair only for
// a family that holds nothing on shard 0, whose primary keeps the order.
func TestMessagesPerRoot(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		obj    ids.ObjectID
		want   []frame
	}{
		{"default topology", 0, 7001, []frame{
			{stats.KindLockReq, 0, 0}, {stats.KindLockReply, 0, 0},
			{stats.KindRelease, 0, 1}, {stats.KindReleaseReply, 0, 1},
		}},
		{"4 shards, object on shard 3", 4, 7003, []frame{
			{stats.KindLockReq, 3, 0}, {stats.KindLockReply, 3, 0},
			{stats.KindRelease, 0, 0}, {stats.KindReleaseReply, 0, 0},
			{stats.KindRelease, 3, 1}, {stats.KindReleaseReply, 3, 1},
		}},
		{"4 shards, object on shard 0", 4, 7004, []frame{
			{stats.KindLockReq, 0, 0}, {stats.KindLockReply, 0, 0},
			{stats.KindRelease, 0, 1}, {stats.KindReleaseReply, 0, 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := stats.NewRecorder()
			addrs := freeAddrs(t, 2)
			topo := Topology{NodeAddrs: addrs[:1], GDOAddr: addrs[1], DirectoryShards: tc.shards}
			g := NewGDOServer(topo)
			g.SetRecorder(rec)
			if err := g.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = g.Close() })
			ns, err := NewNodeServer(NodeConfig{Topology: topo, Self: 1, Protocol: core.LOTEC, PageSize: 256, Rec: rec})
			if err != nil {
				t.Fatal(err)
			}
			registerBodies(t, ns, accountClass(t))
			if err := ns.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = ns.Close() })
			createObject(t, []*NodeServer{ns}, tc.obj, 1)

			for root := 1; root <= 3; root++ {
				before := rec.MsgCount()
				if _, err := ns.Run(tc.obj, "deposit", i64(1)); err != nil {
					t.Fatal(err)
				}
				var got []frame
				for _, r := range rec.Trace()[before:] {
					got = append(got, frame{Kind: r.Kind, Shard: r.Shard, Objs: len(r.Objs)})
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("root %d sent %d frames %v, want %d: %v", root, len(got), got, len(tc.want), tc.want)
				}
			}
		})
	}
}

// TestGDOServerEmptyCommittingRelease: the directory's front door treats
// the empty committing release like any other stamped request — a stale
// epoch is redirected and assigns nothing, a current (or unstamped) one
// fixes the family's place in the commit order, once.
func TestGDOServerEmptyCommittingRelease(t *testing.T) {
	topo := Topology{NodeAddrs: []string{"unused:1"}, GDOAddr: "unused:2", DirectoryShards: 4}
	g := NewGDOServer(topo)
	epoch := topo.InitialMap().Epoch

	stale := g.handle(1, &wire.ReleaseReq{Family: 5, Site: 1, Commit: true, Epoch: epoch + 1})
	if rr, ok := stale.(*wire.RouteResp); !ok || rr.Map.Epoch != epoch {
		t.Fatalf("stale-epoch release answered %+v, want a RouteResp at epoch %d", stale, epoch)
	}
	if seq, ok := g.Directory().CommitSeq(5); ok {
		t.Fatalf("redirected release was given sequence %d", seq)
	}
	for try, e := range []uint64{epoch, 0, epoch} {
		reply := g.handle(1, &wire.ReleaseReq{Family: 5, Site: 1, Commit: true, Epoch: e})
		if _, ok := reply.(*wire.ReleaseResp); !ok {
			t.Fatalf("try %d: reply %+v, want ReleaseResp", try, reply)
		}
		if seq, ok := g.Directory().CommitSeq(5); !ok || seq != 1 {
			t.Fatalf("try %d: family 5 has sequence %d, %v; want 1", try, seq, ok)
		}
	}
}
