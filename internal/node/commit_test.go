package node_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/directory"
	"lotec/internal/gdo"
	"lotec/internal/history"
	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/node"
	"lotec/internal/pstore"
	"lotec/internal/schema"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/txn"
	"lotec/internal/wire"
)

// sentRelease is what the directory side of routedRig saw of one ReleaseReq.
type sentRelease struct {
	Shard  int32
	Commit bool
	Objs   []ids.ObjectID
}

// routedRig is one routed engine (node 1) in front of one directory, which
// the engine addresses as four shards, served by a plain handler on node 2
// that logs every release it is sent — the addressing of
// Engine.releaseGlobal made visible.
type routedRig struct {
	net      *transport.SimNet
	eng      *node.Engine
	dir      *gdo.Directory
	cls      *schema.Class
	releases []sentRelease
	history  []history.Record
}

func newRoutedRig(t *testing.T) *routedRig {
	t.Helper()
	const shards = 4
	r := &routedRig{dir: gdo.New(1)}
	r.net = transport.NewSimNet(2, netmodel.Ethernet100.WithSoftwareCost(5*time.Microsecond), stats.NewRecorder())
	schemas := schema.NewRegistry(64)
	methods := node.NewMethodTable()

	cls, err := schema.NewClassBuilder(1, "C").
		Attr("a", 8).
		Method(schema.MethodSpec{Name: "set", Writes: []string{"a"}}).
		Method(schema.MethodSpec{Name: "fan", Writes: []string{"a"}, Invokes: []ids.ClassID{1}}).
		Method(schema.MethodSpec{Name: "fail", Writes: []string{"a"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := schemas.Add(cls); err != nil {
		t.Fatal(err)
	}
	r.cls = cls
	set := func(ctx *node.Ctx) error { return ctx.Write("a", make([]byte, 8)) }
	bodies := map[string]node.MethodFunc{
		"set": set,
		// fan writes its own object, then each object named in its argument.
		"fan": func(ctx *node.Ctx) error {
			if err := set(ctx); err != nil {
				return err
			}
			for _, b := range ctx.Arg() {
				if _, err := ctx.Invoke(ids.ObjectID(b), "set", nil); err != nil {
					return err
				}
			}
			return nil
		},
		"fail": func(ctx *node.Ctx) error {
			if err := set(ctx); err != nil {
				return err
			}
			return errors.New("body failed")
		},
	}
	for name, fn := range bodies {
		if err := methods.Register(cls, name, fn); err != nil {
			t.Fatal(err)
		}
	}

	env := r.net.Env(1)
	r.eng, err = node.New(node.Config{
		Env:      env,
		Store:    pstore.NewStore(64),
		Schemas:  schemas,
		Methods:  methods,
		Manager:  txn.NewManager(),
		Protocol: core.LOTEC,
		HomeFn:   func(ids.ObjectID) ids.NodeID { return 2 },
		ShardFn:  directory.NewPlacement(shards, 1).ShardOf,
		Route:    directory.NewRouteTable(env, nil, directory.InitialMap(shards, 1, []ids.NodeID{2}, false)),
		History:  func(rec history.Record) { r.history = append(r.history, rec) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.net.SetHandler(1, r.eng.Handle)
	r.net.SetHandler(2, func(_ ids.NodeID, m wire.Msg) wire.Msg {
		switch req := m.(type) {
		case *wire.AcquireReq:
			res, _, err := r.dir.Acquire(req.Obj, req.Ref, req.Family, req.Age, req.Site, req.Mode)
			if err != nil {
				return &wire.ErrResp{Msg: err.Error()}
			}
			return &wire.AcquireResp{Obj: req.Obj, Status: res.Status, Mode: res.Mode,
				NumPages: int32(res.NumPages), LastWriter: res.LastWriter, Shard: req.Shard, PageMap: res.PageMap}
		case *wire.ReleaseReq:
			sent := sentRelease{Shard: req.Shard, Commit: req.Commit}
			for _, rel := range req.Rels {
				sent.Objs = append(sent.Objs, rel.Obj)
			}
			r.releases = append(r.releases, sent)
			_, stamps, err := r.dir.Release(req.Family, req.Site, req.Commit, req.Rels)
			if err != nil {
				return &wire.ErrResp{Msg: err.Error()}
			}
			return &wire.ReleaseResp{Shard: req.Shard, Stamps: stamps}
		}
		return &wire.ErrResp{Msg: "routedRig: unexpected message"}
	})
	return r
}

func (r *routedRig) createObject(t *testing.T, obj ids.ObjectID) {
	t.Helper()
	if err := r.dir.Register(obj, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.RegisterObject(obj, r.cls.ID, 1); err != nil {
		t.Fatal(err)
	}
}

// root runs one root transaction and returns the releases it sent; the
// history the engine recorded for it is left in r.history.
func (r *routedRig) root(t *testing.T, obj ids.ObjectID, method string, arg []byte) ([]sentRelease, ids.FamilyID, error) {
	t.Helper()
	r.releases, r.history = nil, nil
	var fam ids.FamilyID
	var runErr error
	r.net.Env(1).Go(func() { _, fam, runErr = r.eng.Run(obj, method, arg) })
	if err := r.net.Run(); err != nil {
		t.Fatal(err)
	}
	return r.releases, fam, runErr
}

// TestRoutedCommitReleasesOnlyHeldShards: with routed directory shards a
// committing family sends one release batch to each shard it holds objects
// on, in shard order, and to no other — no shard keeps a commit order that
// would want a batch of its own. The family's history record names every
// object it held, the versions it was granted and the ones it wrote. An
// abort releases the same way, uncommitted, and leaves no record.
func TestRoutedCommitReleasesOnlyHeldShards(t *testing.T) {
	r := newRoutedRig(t)
	for _, obj := range []ids.ObjectID{3, 4, 5, 7} { // shards 3, 0, 1, 3
		r.createObject(t, obj)
	}

	t.Run("nothing held on shard 0", func(t *testing.T) {
		got, fam, err := r.root(t, 3, "set", nil)
		if err != nil {
			t.Fatal(err)
		}
		want := []sentRelease{{Shard: 3, Commit: true, Objs: []ids.ObjectID{3}}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("releases = %+v, want %+v", got, want)
		}
		wantRec := []history.Record{{Family: uint64(fam), Holds: []history.Hold{
			{Obj: 3, Mode: history.Write, Seen: []uint64{1}, Wrote: []history.Stamp{{Page: 0, Version: 2}}},
		}}}
		if !reflect.DeepEqual(r.history, wantRec) {
			t.Errorf("history = %+v, want %+v", r.history, wantRec)
		}
	})
	t.Run("holds on shard 0 and others", func(t *testing.T) {
		got, fam, err := r.root(t, 5, "fan", []byte{7, 4})
		if err != nil {
			t.Fatal(err)
		}
		want := []sentRelease{
			{Shard: 0, Commit: true, Objs: []ids.ObjectID{4}},
			{Shard: 1, Commit: true, Objs: []ids.ObjectID{5}},
			{Shard: 3, Commit: true, Objs: []ids.ObjectID{7}},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("releases = %+v, want %+v", got, want)
		}
		wrote := func(obj int64) history.Hold {
			return history.Hold{Obj: obj, Mode: history.Write, Seen: []uint64{1}, Wrote: []history.Stamp{{Page: 0, Version: 2}}}
		}
		wantRec := []history.Record{{Family: uint64(fam), Holds: []history.Hold{wrote(4), wrote(5), wrote(7)}}}
		if !reflect.DeepEqual(r.history, wantRec) {
			t.Errorf("history = %+v, want %+v", r.history, wantRec)
		}
	})
	t.Run("abort", func(t *testing.T) {
		got, _, err := r.root(t, 3, "fail", nil)
		if err == nil {
			t.Fatal("failing body committed")
		}
		want := []sentRelease{{Shard: 3, Objs: []ids.ObjectID{3}}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("releases = %+v, want %+v", got, want)
		}
		if len(r.history) != 0 {
			t.Errorf("an aborted family left history %+v", r.history)
		}
	})
}
