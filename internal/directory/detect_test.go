package directory

import (
	"fmt"
	"reflect"
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// A deadlock scenario is a list of steps, each one acquire for write or one
// release of a single object, run through one door of the directory. What a
// door answers to each step — the acquire's status and the grant and abort
// events the step releases — is its decision record.

type doorStep struct {
	obj     ids.ObjectID
	fam     ids.FamilyID
	release bool // release obj as an aborting family, instead of acquiring it
}

// doorOutcome is what one step produced: the acquire status (0 for a
// release) and the events, in the order they were released.
type doorOutcome struct {
	status gdo.AcquireStatus
	events []doorEvent
}

type doorEvent struct {
	kind  gdo.EventKind
	fam   ids.FamilyID
	obj   ids.ObjectID
	shard int32
}

// throughSharded runs the steps through the in-process router.
func throughSharded(t *testing.T, shards int, objs []ids.ObjectID, steps []doorStep) []doorOutcome {
	t.Helper()
	s := NewSharded(shards, 1)
	for _, obj := range objs {
		if err := s.Register(obj, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	var out []doorOutcome
	for _, st := range steps {
		var o doorOutcome
		var events []gdo.Event
		var err error
		if st.release {
			events, _, err = s.Release(st.fam, 1, false, []gdo.ObjectRelease{{Obj: st.obj}})
		} else {
			var res gdo.AcquireResult
			res, events, err = s.Acquire(st.obj, ids.TxRef{Tx: ids.TxID(st.fam), Node: 1}, st.fam, uint64(st.fam), 1, o2pl.Write)
			o.status = res.Status
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			o.events = append(o.events, doorEvent{ev.Kind, ev.Family, ev.Obj, ev.Shard})
		}
		out = append(out, o)
	}
	return out
}

// throughHosts runs the steps through directory hosts 2..1+len(hosts) over
// a SimNet, node 1 being the client and the site every event goes to. Each
// step is one wire request driven to quiescence, so the tier-2 summary
// pushes and aborts it triggers have all landed before the next step.
func throughHosts(t *testing.T, shards int, m wire.PlacementMap, nHosts int, objs []ids.ObjectID, steps []doorStep) []doorOutcome {
	t.Helper()
	b := newRepBed(t, nHosts, shards, m)
	for _, obj := range objs {
		b.register(t, obj, 1)
	}
	var got []doorEvent
	b.net.SetHandler(1, func(_ ids.NodeID, m wire.Msg) wire.Msg {
		switch e := m.(type) {
		case *wire.Grant:
			got = append(got, doorEvent{gdo.EventGrant, e.Family, e.Obj, e.Shard})
		case *wire.Abort:
			got = append(got, doorEvent{gdo.EventDeadlockAbort, e.Family, e.Obj, e.Shard})
		default:
			t.Errorf("site received %T", m)
		}
		return nil
	})
	var out []doorOutcome
	for _, st := range steps {
		var o doorOutcome
		b.client(t, func(_ transport.Env, rt *RouteTable) {
			shard := b.place.ShardOf(st.obj)
			if st.release {
				reply, err := rt.Call(shard, &wire.ReleaseReq{
					Family: st.fam, Site: 1, Shard: int32(shard),
					Rels: []gdo.ObjectRelease{{Obj: st.obj}},
				})
				if _, ok := reply.(*wire.ReleaseResp); err != nil || !ok {
					t.Errorf("release of %v by %v: %T, %v", st.obj, st.fam, reply, err)
				}
				return
			}
			o.status = acquire(t, rt, b.place, st.obj, st.fam, o2pl.Write).Status
		})
		o.events, got = got, nil
		out = append(out, o)
	}
	for id, h := range b.hosts {
		if d := h.DebugDump(); d != "" {
			t.Errorf("host %v not drained:\n%s", id, d)
		}
	}
	return out
}

func hostIDs(n int) []ids.NodeID {
	hosts := make([]ids.NodeID, n)
	for i := range hosts {
		hosts[i] = ids.NodeID(2 + i)
	}
	return hosts
}

// TestSameCycleSameVictimThroughEveryDoor builds a two-family cycle across
// two shards and a three-family cycle across three, and drives each through
// the three places a cross-shard cycle can be decided: the in-process
// router (Sharded), one host that is primary for every shard (tier 1), and
// one host per shard, where the cycle straddles hosts and only the
// coordinator's union of pushed summaries shows it (tier 2). All three must
// pick the same victim — the youngest family on the cycle, not the
// requester that closed it — and release the same abort and grant events.
func TestSameCycleSameVictimThroughEveryDoor(t *testing.T) {
	const a, b, c = ids.FamilyID(10), ids.FamilyID(30), ids.FamilyID(20) // b is the youngest
	cases := []struct {
		name   string
		shards int
		objs   []ids.ObjectID // objs[i] lives on shard i
		steps  []doorStep
		victim ids.FamilyID
	}{
		{
			name: "two families over two shards", shards: 2, objs: []ids.ObjectID{2, 1}, victim: b,
			steps: []doorStep{
				{obj: 2, fam: a},
				{obj: 1, fam: b},
				{obj: 2, fam: b},                // b → a
				{obj: 1, fam: a},                // a → b closes the cycle; b is aborted
				{obj: 1, fam: b, release: true}, // a is granted object 1
				{obj: 2, fam: a, release: true},
				{obj: 1, fam: a, release: true},
			},
		},
		{
			name: "three families over three shards", shards: 3, objs: []ids.ObjectID{3, 1, 2}, victim: b,
			steps: []doorStep{
				{obj: 3, fam: a},
				{obj: 1, fam: b},
				{obj: 2, fam: c},
				{obj: 3, fam: b},                // b → a
				{obj: 1, fam: c},                // c → b
				{obj: 2, fam: a},                // a → c closes the cycle; b is aborted
				{obj: 1, fam: b, release: true}, // c is granted object 1
				{obj: 1, fam: c, release: true},
				{obj: 2, fam: c, release: true}, // a is granted object 2
				{obj: 3, fam: a, release: true},
				{obj: 2, fam: a, release: true},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			place := NewPlacement(tc.shards, 1)
			for s, obj := range tc.objs {
				if place.ShardOf(obj) != s {
					t.Fatalf("object %v is on shard %d, want %d", obj, place.ShardOf(obj), s)
				}
			}
			router := throughSharded(t, tc.shards, tc.objs, tc.steps)
			var aborted []ids.FamilyID
			for _, o := range router {
				for _, ev := range o.events {
					if ev.kind == gdo.EventDeadlockAbort {
						aborted = append(aborted, ev.fam)
					}
				}
			}
			if !reflect.DeepEqual(aborted, []ids.FamilyID{tc.victim}) {
				t.Fatalf("router aborted %v, want only %v\n%s", aborted, tc.victim, renderOutcomes(router))
			}
			doors := []struct {
				name   string
				m      wire.PlacementMap
				nHosts int
			}{
				{"tier 1", InitialMap(tc.shards, 1, hostIDs(1), false), 1},
				{"tier 2", InitialMap(tc.shards, 1, hostIDs(tc.shards), true), tc.shards},
			}
			for _, d := range doors {
				got := throughHosts(t, tc.shards, d.m, d.nHosts, tc.objs, tc.steps)
				if !reflect.DeepEqual(got, router) {
					t.Errorf("%s decides differently from the router\n%s:\n%srouter:\n%s", d.name, d.name, renderOutcomes(got), renderOutcomes(router))
				}
			}
		})
	}
}

func renderOutcomes(out []doorOutcome) string {
	s := ""
	for i, o := range out {
		s += fmt.Sprintf("  step %d: status %v events %+v\n", i, o.status, o.events)
	}
	return s
}
