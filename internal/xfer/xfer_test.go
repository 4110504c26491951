package xfer

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/pstore"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

const pageSize = 64

// testCluster is a little N-node world: per-node stores wired into a simnet
// whose handlers serve fetches and pushes through the xfer serving path, and
// answer copy-set lookups from a static table.
type testCluster struct {
	net    *transport.SimNet
	netRec *stats.Recorder
	stores map[ids.NodeID]*pstore.Store
	sets   map[ids.ObjectID][]ids.NodeID
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	netRec := stats.NewRecorder()
	c := &testCluster{
		net:    transport.NewSimNet(n, netmodel.Ethernet100.WithSoftwareCost(10*time.Microsecond), netRec),
		netRec: netRec,
		stores: make(map[ids.NodeID]*pstore.Store),
		sets:   make(map[ids.ObjectID][]ids.NodeID),
	}
	for i := 1; i <= n; i++ {
		id := ids.NodeID(i)
		c.stores[id] = pstore.NewStore(pageSize)
		store := c.stores[id]
		c.net.SetHandler(id, func(from ids.NodeID, m wire.Msg) wire.Msg {
			switch req := m.(type) {
			case *wire.MultiFetchReq:
				return ServeFetch(store, nil, req)
			case *wire.MultiPushReq:
				return ApplyPush(store, nil, req)
			case *wire.CopySetReq:
				resp := &wire.CopySetResp{}
				for _, obj := range req.Objs {
					resp.Sets = append(resp.Sets, wire.CopySet{Obj: obj, Sites: c.sets[obj]})
				}
				return resp
			default:
				return &wire.ErrResp{Msg: "unexpected message"}
			}
		})
	}
	return c
}

// seed registers obj with numPages everywhere and installs version-1 pages
// filled with a site-and-page-specific byte at the given holder.
func (c *testCluster) seed(t *testing.T, obj ids.ObjectID, numPages int, holder ids.NodeID) {
	t.Helper()
	for id, store := range c.stores {
		if err := store.Register(obj, numPages); err != nil {
			t.Fatal(err)
		}
		if id != holder {
			continue
		}
		for p := 0; p < numPages; p++ {
			data := bytes.Repeat([]byte{pageByte(holder, obj, ids.PageNum(p))}, pageSize)
			if err := store.InstallPage(ids.PageID{Object: obj, Page: ids.PageNum(p)}, data, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func pageByte(site ids.NodeID, obj ids.ObjectID, p ids.PageNum) byte {
	return byte(int(site)*100 + int(obj)*10 + int(p))
}

// run executes fn as node 1's process and drives the simulation to idle.
func (c *testCluster) run(t *testing.T, fn func(e *Engine)) *stats.Recorder {
	t.Helper()
	rec := stats.NewRecorder()
	e := &Engine{Env: c.net.Env(1), Store: c.stores[1], Rec: rec, Concurrency: 4}
	c.net.Env(1).Go(func() { fn(e) })
	if err := c.net.Run(); err != nil {
		t.Fatal(err)
	}
	return rec
}

func locs(node ids.NodeID, version uint64, n int) []gdo.PageLoc {
	out := make([]gdo.PageLoc, n)
	for i := range out {
		out[i] = gdo.PageLoc{Node: node, Version: version}
	}
	return out
}

// TestPlanFetchBatching checks the plan+batch stages: pages grouped by
// source site across objects, sites and objects ascending, self and
// already-current pages filtered out.
func TestPlanFetchBatching(t *testing.T) {
	c := newTestCluster(t, 4)
	c.seed(t, 10, 2, 2)
	c.seed(t, 11, 3, 3)
	c.seed(t, 12, 1, 2)
	e := &Engine{Env: c.net.Env(1), Store: c.stores[1], Concurrency: 4}

	// Object 11 scatters: page 0 at site 3, page 1 at self (skipped), page 2
	// at site 2 — so sites 2 and 3 each serve pages of two objects.
	pm11 := []gdo.PageLoc{{Node: 3, Version: 1}, {Node: 1, Version: 1}, {Node: 2, Version: 1}}
	plans, err := e.planFetch([]Want{
		{Obj: 12, Pages: []ids.PageNum{0}, PageMap: locs(2, 1, 1), Single: 2},
		{Obj: 11, Pages: []ids.PageNum{0, 1, 2}, PageMap: pm11, Single: ids.NoNode},
		{Obj: 10, Pages: []ids.PageNum{0, 1}, PageMap: locs(2, 1, 2), Single: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("got %d source plans, want 2: %+v", len(plans), plans)
	}
	if plans[0].site != 2 || plans[1].site != 3 {
		t.Fatalf("sites not ascending: %v, %v", plans[0].site, plans[1].site)
	}
	// Site 2's batch covers objects 10, 11, 12 in ascending object order.
	got2 := plans[0].objs
	if len(got2) != 3 || got2[0].Obj != 10 || got2[1].Obj != 11 || got2[2].Obj != 12 {
		t.Fatalf("site 2 batch: %+v", got2)
	}
	if len(got2[0].Pages) != 2 || len(got2[1].Pages) != 1 || got2[1].Pages[0] != 2 {
		t.Fatalf("site 2 pages: %+v", got2)
	}
	if len(plans[1].objs) != 1 || plans[1].objs[0].Obj != 11 || plans[1].objs[0].Pages[0] != 0 {
		t.Fatalf("site 3 batch: %+v", plans[1].objs)
	}
}

func TestPlanFetchFilters(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seed(t, 20, 2, 2)
	e := &Engine{Env: c.net.Env(1), Store: c.stores[1], Concurrency: 1}

	// Single == self: the whole want drops.
	plans, err := e.planFetch([]Want{{Obj: 20, Pages: []ids.PageNum{0, 1}, PageMap: locs(2, 1, 2), Single: 1}})
	if err != nil || len(plans) != 0 {
		t.Fatalf("self-sourced want not dropped: %v %+v", err, plans)
	}

	// VersionAware: a resident page at the mapped version is skipped; a stale
	// one still moves.
	if err := c.stores[1].InstallPage(ids.PageID{Object: 20, Page: 0}, make([]byte, pageSize), 5); err != nil {
		t.Fatal(err)
	}
	pm := []gdo.PageLoc{{Node: 2, Version: 5}, {Node: 2, Version: 5}}
	plans, err = e.planFetch([]Want{{Obj: 20, Pages: []ids.PageNum{0, 1}, PageMap: pm, Single: ids.NoNode, VersionAware: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || len(plans[0].objs) != 1 || len(plans[0].objs[0].Pages) != 1 || plans[0].objs[0].Pages[0] != 1 {
		t.Fatalf("version-aware filter wrong: %+v", plans)
	}
	// Without VersionAware (COTEC) both pages move again.
	plans, err = e.planFetch([]Want{{Obj: 20, Pages: []ids.PageNum{0, 1}, PageMap: pm, Single: ids.NoNode}})
	if err != nil || len(plans[0].objs[0].Pages) != 2 {
		t.Fatalf("COTEC re-transfer filter wrong: %v %+v", err, plans)
	}

	// Locally dirty pages never move.
	if _, err := c.stores[1].Write(20, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	plans, err = e.planFetch([]Want{{Obj: 20, Pages: []ids.PageNum{0, 1}, PageMap: pm, Single: ids.NoNode}})
	if err != nil || len(plans) != 1 || plans[0].objs[0].Pages[0] != 1 {
		t.Fatalf("dirty filter wrong: %v %+v", err, plans)
	}

	// A page outside the map is a planning error.
	if _, err = e.planFetch([]Want{{Obj: 20, Pages: []ids.PageNum{7}, PageMap: pm, Single: ids.NoNode}}); err == nil {
		t.Fatal("out-of-map page not rejected")
	}
}

// TestFetchEndToEnd moves pages of two objects from two sites in one
// pipeline pass and checks installs plus the recorded transfer sample.
func TestFetchEndToEnd(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seed(t, 30, 2, 2)
	c.seed(t, 31, 1, 3)
	rec := c.run(t, func(e *Engine) {
		err := e.Fetch([]Want{
			{Obj: 30, Pages: []ids.PageNum{0, 1}, PageMap: locs(2, 1, 2), Single: 2},
			{Obj: 31, Pages: []ids.PageNum{0}, PageMap: locs(3, 1, 1), Single: ids.NoNode},
		}, false)
		if err != nil {
			t.Errorf("fetch: %v", err)
		}
	})
	for _, want := range []struct {
		obj    ids.ObjectID
		page   ids.PageNum
		holder ids.NodeID
	}{{30, 0, 2}, {30, 1, 2}, {31, 0, 3}} {
		pid := ids.PageID{Object: want.obj, Page: want.page}
		data, ver, err := c.stores[1].PageCopy(pid)
		if err != nil {
			t.Fatalf("page %v not installed: %v", pid, err)
		}
		if ver != 1 || data[0] != pageByte(want.holder, want.obj, want.page) {
			t.Errorf("page %v: version %d byte %d", pid, ver, data[0])
		}
	}
	tot := rec.TransferStages(stats.TransferFetch)
	if tot.Transfers != 1 || tot.Batches != 2 || tot.Pages != 3 || tot.Bytes != 3*pageSize {
		t.Errorf("transfer totals: %+v", tot)
	}
	if tot.Gather <= 0 {
		t.Errorf("gather span not recorded: %+v", tot)
	}
}

// TestFetchDemandCount checks §4.3 demand fetches are counted once per
// batched source-site request.
func TestFetchDemandCount(t *testing.T) {
	c := newTestCluster(t, 3)
	c.seed(t, 40, 2, 2)
	rec := c.run(t, func(e *Engine) {
		if err := e.Fetch([]Want{{Obj: 40, Pages: []ids.PageNum{0, 1}, PageMap: locs(2, 1, 2), Single: ids.NoNode}}, true); err != nil {
			t.Errorf("fetch: %v", err)
		}
	})
	if got := rec.Counters().DemandFetches; got != 1 {
		t.Errorf("demand fetches = %d, want 1", got)
	}
}

// TestFetchServeError checks a missing page at the serving site surfaces as
// a fetch error, not a silent partial install.
func TestFetchServeError(t *testing.T) {
	c := newTestCluster(t, 2)
	// Registered everywhere but never installed at site 2.
	c.seed(t, 50, 1, 1)
	c.run(t, func(e *Engine) {
		err := e.Fetch([]Want{{Obj: 50, Pages: []ids.PageNum{0}, PageMap: locs(2, 1, 1), Single: 2}}, false)
		if err == nil || !strings.Contains(err.Error(), "fetch from") {
			t.Errorf("missing remote page: err = %v", err)
		}
	})
}

// TestPushEndToEnd drives the scatter direction: dirty pages at site 1 land
// at every copy-set site in one batched push per destination, with one
// copy-set lookup per home.
func TestPushEndToEnd(t *testing.T) {
	c := newTestCluster(t, 4)
	c.seed(t, 60, 2, 1)
	c.seed(t, 61, 1, 1)
	c.sets[60] = []ids.NodeID{1, 2, 3}
	c.sets[61] = []ids.NodeID{2, 4}
	for _, obj := range []ids.ObjectID{60, 61} {
		if _, err := c.stores[1].Write(obj, 0, bytes.Repeat([]byte{0xAB}, pageSize)); err != nil {
			t.Fatal(err)
		}
		if err := c.stores[1].SetPageVersion(ids.PageID{Object: obj, Page: 0}, 9); err != nil {
			t.Fatal(err)
		}
	}
	dirty := map[ids.ObjectID][]ids.PageNum{
		60: c.stores[1].DirtyPages(60),
		61: c.stores[1].DirtyPages(61),
	}
	home := func(ids.ObjectID) ids.NodeID { return 4 }
	rec := c.run(t, func(e *Engine) {
		if err := e.Push([]ids.ObjectID{60, 61}, dirty, home, false); err != nil {
			t.Errorf("push: %v", err)
		}
	})
	for _, want := range []struct {
		site ids.NodeID
		obj  ids.ObjectID
	}{{2, 60}, {3, 60}, {2, 61}, {4, 61}} {
		data, ver, err := c.stores[want.site].PageCopy(ids.PageID{Object: want.obj, Page: 0})
		if err != nil {
			t.Fatalf("site %v obj %v: %v", want.site, want.obj, err)
		}
		if ver != 9 || data[0] != 0xAB {
			t.Errorf("site %v obj %v: version %d byte %#x", want.site, want.obj, ver, data[0])
		}
	}
	if c.stores[4].HasPage(ids.PageID{Object: 60, Page: 0}) {
		t.Error("object 60 pushed to a site outside its copy set")
	}
	tot := rec.TransferStages(stats.TransferPush)
	// Three destinations (2, 3, 4), three object-payload entries... sites 2
	// gets both objects: pages counted per destination entry = 2+1+1.
	if tot.Transfers != 1 || tot.Batches != 3 || tot.Pages != 4 {
		t.Errorf("push totals: %+v", tot)
	}
	// One CopySetReq for the single home site, batching both objects.
	lookups := 0
	for _, m := range c.netRec.Trace() {
		if m.Kind == stats.KindLockReq && m.To == 4 {
			lookups++
			if len(m.Objs) != 2 {
				t.Errorf("copy-set lookup not batched: %+v", m)
			}
		}
	}
	if lookups != 1 {
		t.Errorf("copy-set lookups = %d, want 1", lookups)
	}
}

// TestApplyPushSkipsStale checks the receiver-side version guard.
func TestApplyPushSkipsStale(t *testing.T) {
	store := pstore.NewStore(pageSize)
	if err := store.Register(70, 1); err != nil {
		t.Fatal(err)
	}
	pid := ids.PageID{Object: 70, Page: 0}
	if err := store.InstallPage(pid, bytes.Repeat([]byte{7}, pageSize), 5); err != nil {
		t.Fatal(err)
	}
	reply := ApplyPush(store, nil, &wire.MultiPushReq{Objs: []wire.ObjPayload{{
		Obj:   70,
		Pages: []wire.PagePayload{{Page: 0, Version: 3, Data: bytes.Repeat([]byte{9}, pageSize)}},
	}}})
	if _, ok := reply.(*wire.PushResp); !ok {
		t.Fatalf("reply = %T", reply)
	}
	data, ver, err := store.PageCopy(pid)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 5 || data[0] != 7 {
		t.Errorf("stale push overwrote newer page: version %d byte %d", ver, data[0])
	}
}

// TestPagePool checks the staging-buffer contract: staged pages come from
// pstore's pool and go back through ReleasePage.
func TestPagePool(t *testing.T) {
	buf := pstore.GetPage(pageSize)
	if len(buf) != pageSize {
		t.Fatalf("GetPage(%d) len %d", pageSize, len(buf))
	}
	ReleasePage(buf)
	big := pstore.GetPage(pstore.DefaultPageSize * 2)
	if len(big) != pstore.DefaultPageSize*2 {
		t.Fatalf("oversized GetPage len %d", len(big))
	}
	ReleasePage(big)
	ReleasePage(nil) // must not panic
}
