package server

import (
	"reflect"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/stats"
)

// frame is the part of a trace record TestMessagesPerRoot pins.
type frame struct {
	Kind  stats.MsgKind
	Shard int
	Objs  int // objects a release names, or its reply stamps
}

// TestMessagesPerRoot counts the frames of flat roots run at the owner of
// their object, so nothing but the directory is talked to. The committing
// release is the commit point: two round trips for a first root — acquire
// and release — on whichever shard the object lives, since no shard keeps a
// commit order. The last release of a run of gdo.KeepStreak grants to one
// site leaves the lock there, and from then on a root is its committing
// release alone; a root elsewhere gets the lock back by recall.
func TestMessagesPerRoot(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		obj    ids.ObjectID
		first  []frame
		repeat []frame
	}{
		{"default topology", 0, 7001, []frame{
			{stats.KindLockReq, 0, 0}, {stats.KindLockReply, 0, 0},
			{stats.KindRelease, 0, 1}, {stats.KindReleaseReply, 0, 1},
		}, []frame{
			{stats.KindRelease, 0, 1}, {stats.KindReleaseReply, 0, 1},
		}},
		{"4 shards, object on shard 3", 4, 7003, []frame{
			{stats.KindLockReq, 3, 0}, {stats.KindLockReply, 3, 0},
			{stats.KindRelease, 3, 1}, {stats.KindReleaseReply, 3, 1},
		}, []frame{
			{stats.KindRelease, 3, 1}, {stats.KindReleaseReply, 3, 1},
		}},
		{"4 shards, object on shard 0", 4, 7004, []frame{
			{stats.KindLockReq, 0, 0}, {stats.KindLockReply, 0, 0},
			{stats.KindRelease, 0, 1}, {stats.KindReleaseReply, 0, 1},
		}, []frame{
			{stats.KindRelease, 0, 1}, {stats.KindReleaseReply, 0, 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := stats.NewRecorder()
			addrs := freeAddrs(t, 3)
			topo := Topology{NodeAddrs: addrs[:2], GDOAddr: addrs[2], DirectoryShards: tc.shards}
			g := NewGDOServer(topo)
			g.SetRecorder(rec)
			if err := g.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = g.Close() })
			var nodes []*NodeServer
			for self := ids.NodeID(1); self <= 2; self++ {
				ns, err := NewNodeServer(NodeConfig{Topology: topo, Self: self, Protocol: core.LOTEC, PageSize: 256, Rec: rec})
				if err != nil {
					t.Fatal(err)
				}
				registerBodies(t, ns, accountClass(t))
				if err := ns.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = ns.Close() })
				nodes = append(nodes, ns)
			}
			createObject(t, nodes, tc.obj, 1)

			// framesOf runs one root and returns what it put on the wire.
			framesOf := func(ns *NodeServer) []frame {
				before := rec.MsgCount()
				if _, err := ns.Run(tc.obj, "deposit", i64(1)); err != nil {
					t.Fatal(err)
				}
				var got []frame
				for _, r := range rec.Trace()[before:] {
					got = append(got, frame{Kind: r.Kind, Shard: r.Shard, Objs: len(r.Objs)})
				}
				return got
			}
			for root := 1; root <= gdo.KeepStreak+3; root++ {
				want := tc.first
				if root > gdo.KeepStreak {
					want = tc.repeat
				}
				if got := framesOf(nodes[0]); !reflect.DeepEqual(got, want) {
					t.Fatalf("root %d sent %d frames %v, want %d: %v", root, len(got), got, len(want), want)
				}
			}

			// A root at the other node: its acquire queues behind the site
			// hold, the directory recalls, node 1 hands the idle grant back
			// (a release of its own, answered) and the grant follows; then
			// the page comes over and the root commits as a first root does.
			// The recall, the hand-back and the "queued" reply cross on the
			// wire, so only what was sent is pinned, not the order; and the
			// answer to the hand-back, which nothing waits for, may be the
			// last frame out.
			want := map[stats.MsgKind]int{
				stats.KindLockReq: 1, stats.KindLockReply: 1,
				stats.KindRecall: 1, stats.KindGrant: 1,
				stats.KindRelease: 2, stats.KindReleaseReply: 2,
				stats.KindMultiFetchReq: 1, stats.KindMultiPageData: 1,
			}
			before := rec.MsgCount()
			framesOf(nodes[1])
			kinds := map[stats.MsgKind]int{}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				clear(kinds)
				for _, r := range rec.Trace()[before:] {
					kinds[r.Kind]++
				}
				if reflect.DeepEqual(kinds, want) || time.Now().After(deadline) {
					break
				}
			}
			if !reflect.DeepEqual(kinds, want) {
				t.Fatalf("a root at the other node sent %v, want %v", kinds, want)
			}
			// Node 1 retains nothing now: its next root asks the directory.
			if got := framesOf(nodes[0]); len(got) == 0 || got[0].Kind != stats.KindLockReq {
				t.Fatalf("after the hand-back node 1's root sent %v, want an acquire first", got)
			}
		})
	}
}
