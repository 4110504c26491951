//go:build !race

package xfer

import (
	"testing"

	"lotec/internal/ids"
	"lotec/internal/pstore"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// serveFetchAllocs is what one pass of TestAllocsServeFetch allocates: the
// fetch reply, its object list, its page list and its delta list; the
// delta's runs, gathered from the journal and then put in wire form; and the
// pushed delta's runs in store form. The staged pages come from the page
// pool, the frame from the frame pool, and the push reply is empty.
const serveFetchAllocs = 7

// TestAllocsServeFetch gates the serving side of the data plane, the path a
// site runs for a peer's gather and eager push: a MultiFetchReq for one full
// page and one page the requester holds at an older version, which goes out
// as a delta; the reply encoded to a pooled frame and its staged pages
// given back with ReleaseServed, as the TCP transport does once the reply
// is written; and one push carrying a full page and a delta applied to a
// clean resident copy.
func TestAllocsServeFetch(t *testing.T) {
	const obj = ids.ObjectID(7)
	pid := func(p ids.PageNum) ids.PageID { return ids.PageID{Object: obj, Page: p} }
	page := make([]byte, pstore.DefaultPageSize)

	// The server holds both pages at version 2; page 1 reached it at
	// version 1 and was then rewritten in 8 bytes, so its journal covers
	// 1→2.
	server := pstore.NewStore(pstore.DefaultPageSize)
	if err := server.Register(obj, 2); err != nil {
		t.Fatal(err)
	}
	for p := ids.PageNum(0); p < 2; p++ {
		if err := server.InstallPage(pid(p), page, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := server.Write(obj, pstore.DefaultPageSize+16, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	for p := ids.PageNum(0); p < 2; p++ {
		if err := server.SetPageVersion(pid(p), 2); err != nil {
			t.Fatal(err)
		}
	}
	server.ClearDirty(obj, []ids.PageNum{0, 1})
	fetch := &wire.MultiFetchReq{Objs: []wire.ObjPages{{Obj: obj, Pages: []ids.PageNum{0, 1}, Bases: []uint64{0, 1}}}}

	// The pushee holds both pages; each push moves them one version on.
	pushee := pstore.NewStore(pstore.DefaultPageSize)
	if err := pushee.Register(obj, 2); err != nil {
		t.Fatal(err)
	}
	for p := ids.PageNum(0); p < 2; p++ {
		if err := pushee.InstallPage(pid(p), page, 1); err != nil {
			t.Fatal(err)
		}
	}
	push := &wire.MultiPushReq{Objs: []wire.ObjPayload{{
		Obj:    obj,
		Pages:  []wire.PagePayload{{Page: 0, Data: page}},
		Deltas: []wire.DeltaPage{{Page: 1, Runs: []wire.Span{{Off: 16, Len: 8}}, Data: make([]byte, 8)}},
	}}}
	var version uint64 = 1

	rec := stats.NewRecorder()
	env := wire.Envelope{ReqID: 1, From: 2, To: 1}
	pass := func() {
		resp, ok := ServeFetch(server, rec, fetch).(*wire.MultiFetchResp)
		if !ok || len(resp.Objs) != 1 || len(resp.Objs[0].Pages) != 1 || len(resp.Objs[0].Deltas) != 1 {
			t.Fatalf("fetch reply %+v, want one full page and one delta", resp)
		}
		wire.ReleaseFrame(wire.EncodeFrame(env, resp))
		ReleaseServed(resp)

		push.Objs[0].Pages[0].Version = version + 1
		push.Objs[0].Deltas[0].Base, push.Objs[0].Deltas[0].Version = version, version+1
		if _, ok := ApplyPush(pushee, rec, push).(*wire.PushResp); !ok {
			t.Fatal("push not applied")
		}
		version++
		for p := ids.PageNum(0); p < 2; p++ {
			if v, _ := pushee.PageVersion(pid(p)); v != version {
				t.Fatalf("pushee page %d at version %d, want %d", p, v, version)
			}
		}
	}
	pass()
	if n := testing.AllocsPerRun(1000, pass); n > serveFetchAllocs {
		t.Errorf("serving a fetch and applying a push allocates %.2f/op, want ≤ %v", n, serveFetchAllocs)
	}
}
