package server

import (
	"bytes"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/fault"
	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/pstore"
	"lotec/internal/schema"
	"lotec/internal/stats"
	"lotec/internal/transport"
)

// sheetObj is the one object of a page deployment: one full 4 KiB page,
// owned by node 1.
const sheetObj = ids.ObjectID(1)

// startPageDeployment brings up a directory and two nodes with 4 KiB pages
// and creates sheetObj, whose "fill" method rewrites its whole page with the
// argument and whose "look" method returns the page. cfg, when not nil,
// adjusts each node's configuration before the node starts.
func startPageDeployment(t *testing.T, cfg func(*NodeConfig)) []*NodeServer {
	t.Helper()
	addrs := freeAddrs(t, 3)
	topo := Topology{NodeAddrs: addrs[:2], GDOAddr: addrs[2]}
	g := NewGDOServer(topo)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	cls, err := schema.NewClassBuilder(1, "Sheet").
		Attr("page", pstore.DefaultPageSize).
		Method(schema.MethodSpec{Name: "fill", Writes: []string{"page"}}).
		Method(schema.MethodSpec{Name: "look", Reads: []string{"page"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*NodeServer
	for i := 1; i <= 2; i++ {
		nc := NodeConfig{Topology: topo, Self: ids.NodeID(i), Protocol: core.LOTEC, PageSize: pstore.DefaultPageSize}
		if cfg != nil {
			cfg(&nc)
		}
		ns, err := NewNodeServer(nc)
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.AddClass(cls); err != nil {
			t.Fatal(err)
		}
		if err := ns.OnMethod(cls, "fill", func(ctx *node.Ctx) error { return ctx.Write("page", ctx.Arg()) }); err != nil {
			t.Fatal(err)
		}
		if err := ns.OnMethod(cls, "look", func(ctx *node.Ctx) error {
			page, err := ctx.Read("page")
			ctx.SetResult(page)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := ns.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ns.Close() })
		nodes = append(nodes, ns)
	}
	createObject(t, nodes, sheetObj, 1)
	return nodes
}

// TestDedupReplayCarriesServedPage: a node gives the pages it served back to
// the page pool once the reply is written — except for a request with a
// body request ID, whose reply fault.Dedup keeps for replay. Node 1 drops
// its first fetch reply; node 2's retry is answered from the cache, and the
// replayed reply must still carry the page node 1 wrote. Under -race a
// buffer given back too early is poisoned, so the replay would carry 0xDB.
func TestDedupReplayCarriesServedPage(t *testing.T) {
	plan := fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpDrop, Prob: 1, Kinds: []stats.MsgKind{stats.KindMultiPageData}, MaxHits: 1},
	}}
	recs := map[ids.NodeID]*stats.Recorder{1: stats.NewRecorder(), 2: stats.NewRecorder()}
	nodes := startPageDeployment(t, func(nc *NodeConfig) {
		nc.Faults, nc.Rec = &plan, recs[nc.Self]
		nc.Retry = transport.RetryPolicy{Attempts: 4, Timeout: 200 * time.Millisecond, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	})
	for i, w := range []struct{ writer, reader int }{{0, 1}, {1, 0}, {0, 1}} {
		page := bytes.Repeat([]byte{byte(0x11 * (i + 1))}, pstore.DefaultPageSize)
		if _, err := nodes[w.writer].Run(sheetObj, "fill", page); err != nil {
			t.Fatal(err)
		}
		got, err := nodes[w.reader].Run(sheetObj, "look", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, page) {
			t.Fatalf("round %d: node %d read %#x…, want the page of %#x node %d wrote", i, w.reader+1, got[:4], page[0], w.writer+1)
		}
	}
	for id, rec := range recs {
		if c := rec.Counters(); c.MsgDrops != 1 {
			t.Errorf("node %v dropped %d fetch replies, want 1", id, c.MsgDrops)
		}
	}
	if c := recs[2].Counters(); c.CallRetries < 1 {
		t.Errorf("node 2 retried %d calls: its first fetch was answered, not replayed", c.CallRetries)
	}
}
