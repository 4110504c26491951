package directory

import (
	"fmt"
	"reflect"
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
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
	site  ids.NodeID
}

// throughHosts runs the steps through directory hosts 2..1+nHosts over a
// SimNet, node 1 being the client and the site every event goes to. Each
// step is one wire request driven to quiescence, so the tier-2 summary
// pushes and aborts it triggers have all landed before the next step.
func throughHosts(t *testing.T, shards int, m wire.PlacementMap, nHosts int, objs []ids.ObjectID, steps []doorStep) []doorOutcome {
	t.Helper()
	b := newRepBed(t, nHosts, shards, m)
	for _, obj := range objs {
		b.register(t, obj, 1)
	}
	b.watchSites(t, 1)
	var out []doorOutcome
	for _, st := range steps {
		var o doorOutcome
		if st.release {
			b.releaseAt(t, 1, st.fam, false, st.obj)
		} else {
			o.status = b.acquireAt(t, 1, st.obj, st.fam, uint64(st.fam), false).Status
		}
		o.events = b.takeEvents()
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
// the two places a cross-shard cycle can be decided: one host that is
// primary for every shard (tier 1), and one host per shard, where the cycle
// straddles hosts and only the coordinator's union of pushed summaries
// shows it (tier 2). Tier 1 must pick the youngest family on the cycle, not
// the requester that closed it, and tier 2 must pick the same victim and
// release the same abort and grant events.
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
			tier1 := throughHosts(t, tc.shards, InitialMap(tc.shards, 1, hostIDs(1), false), 1, tc.objs, tc.steps)
			var aborted []ids.FamilyID
			for _, o := range tier1 {
				for _, ev := range o.events {
					if ev.kind == gdo.EventDeadlockAbort {
						aborted = append(aborted, ev.fam)
					}
				}
			}
			if !reflect.DeepEqual(aborted, []ids.FamilyID{tc.victim}) {
				t.Fatalf("tier 1 aborted %v, want only %v\n%s", aborted, tc.victim, renderOutcomes(tier1))
			}
			tier2 := throughHosts(t, tc.shards, InitialMap(tc.shards, 1, hostIDs(tc.shards), true), tc.shards, tc.objs, tc.steps)
			if !reflect.DeepEqual(tier2, tier1) {
				t.Errorf("tier 2 decides differently from tier 1\ntier 2:\n%stier 1:\n%s", renderOutcomes(tier2), renderOutcomes(tier1))
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
