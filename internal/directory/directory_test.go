package directory

import (
	"reflect"
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

func ref(f ids.FamilyID, n ids.NodeID) ids.TxRef {
	return ids.TxRef{Tx: ids.TxID(f), Node: n}
}

func TestPlacement(t *testing.T) {
	p := NewPlacement(4, 8)
	single := gdo.New(8)
	for obj := ids.ObjectID(-5); obj < 40; obj++ {
		s := p.ShardOf(obj)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%v) = %d outside [0,4)", obj, s)
		}
		// The cost model's home assignment must be unchanged from the
		// single directory at every shard count. (IDs are allocated from 1;
		// the single directory never normalizes negatives.)
		if obj < 0 {
			continue
		}
		if got, want := p.HomeNode(obj), single.HomeNode(obj); got != want {
			t.Errorf("HomeNode(%v) = %v, single directory says %v", obj, got, want)
		}
	}
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

// step runs one scripted directory operation and flattens everything
// observable about its outcome.
type step func(s Service) []any

// TestSingleShardDelegation scripts an acquire/queue/commit/grant sequence
// against a plain gdo.Directory and a 1-shard router and requires identical
// results, events and stamps — the delegation path must add nothing.
func TestSingleShardDelegation(t *testing.T) {
	script := []step{
		func(s Service) []any { return []any{s.Register(1, 3, 1), s.Register(2, 2, 2)} },
		func(s Service) []any {
			res, ev, err := s.Acquire(1, ref(10, 1), 10, 10, 1, o2pl.Write)
			return []any{res, ev, err}
		},
		func(s Service) []any {
			res, ev, err := s.Acquire(1, ref(20, 2), 20, 20, 2, o2pl.Write)
			return []any{res, ev, err}
		},
		func(s Service) []any {
			res, ev, err := s.Acquire(2, ref(10, 1), 10, 10, 1, o2pl.Read)
			return []any{res, ev, err}
		},
		func(s Service) []any {
			ev, st, err := s.Release(10, 1, true, []gdo.ObjectRelease{
				{Obj: 1, Dirty: []ids.PageNum{0, 2}}, {Obj: 2}})
			return []any{ev, st, err}
		},
		func(s Service) []any {
			ev, st, err := s.Release(20, 2, false, []gdo.ObjectRelease{{Obj: 1}})
			return []any{ev, st, err}
		},
		func(s Service) []any {
			seq, ok := s.CommitSeq(10)
			st, err := s.State(1)
			return []any{seq, ok, st, err}
		},
	}
	var outs [2][][]any
	for i, svc := range []Service{gdo.New(4), NewSharded(1, 4)} {
		for _, f := range script {
			outs[i] = append(outs[i], f(svc))
		}
	}
	for i := range script {
		if !reflect.DeepEqual(outs[0][i], outs[1][i]) {
			t.Errorf("step %d diverges:\n single %#v\nsharded %#v", i, outs[0][i], outs[1][i])
		}
	}
}

// crossShardCycle stands up the canonical two-family, two-shard deadlock:
// on a 2-shard directory, famA (at site 1) holds object 2 (shard 0) and
// famB (at site 2) holds object 3 (shard 1); then B parks behind A on
// object 2. Neither shard alone sees a cycle until A requests object 3.
func crossShardCycle(t *testing.T, ageA, ageB uint64) *Sharded {
	t.Helper()
	s := NewSharded(2, 2)
	for _, o := range []ids.ObjectID{2, 3} {
		if err := s.Register(o, 2, 1); err != nil {
			t.Fatal(err)
		}
	}
	if s.ShardOf(2) != 0 || s.ShardOf(3) != 1 {
		t.Fatalf("placement: O2→%d O3→%d, want 0 and 1", s.ShardOf(2), s.ShardOf(3))
	}
	mustGrant := func(obj ids.ObjectID, f ids.FamilyID, age uint64, site ids.NodeID) {
		t.Helper()
		res, ev, err := s.Acquire(obj, ref(f, site), f, age, site, o2pl.Write)
		if err != nil || res.Status != gdo.GrantedNow || len(ev) != 0 {
			t.Fatalf("acquire %v by fam %v: %+v, %v, %v", obj, f, res, ev, err)
		}
	}
	mustGrant(2, 100, ageA, 1)
	mustGrant(3, 200, ageB, 2)
	res, ev, err := s.Acquire(2, ref(200, 2), 200, ageB, 2, o2pl.Write)
	if err != nil || res.Status != gdo.Queued || len(ev) != 0 {
		t.Fatalf("B parks on O2: %+v, %v, %v", res, ev, err)
	}
	return s
}

// TestCrossShardDeadlockAbortsYoungest: A is older, so when A's request for
// object 3 closes the inter-shard cycle, the router must pick B (youngest)
// as victim and cancel its shard-0 wait.
func TestCrossShardDeadlockAbortsYoungest(t *testing.T) {
	s := crossShardCycle(t, 1, 2) // ageA=1 (older), ageB=2 (youngest)

	res, ev, err := s.Acquire(3, ref(100, 1), 100, 1, 1, o2pl.Write)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != gdo.Queued {
		t.Fatalf("A's closing request: status %v, want Queued", res.Status)
	}
	if len(ev) != 1 || ev[0].Kind != gdo.EventDeadlockAbort || ev[0].Family != 200 {
		t.Fatalf("victim events = %+v, want one DeadlockAbort for fam 200", ev)
	}
	if ev[0].Shard != 0 || ev[0].Obj != 2 {
		t.Errorf("abort stamped shard %d obj %v, want shard 0 obj 2", ev[0].Shard, ev[0].Obj)
	}

	// B's site reacts by aborting the family: releasing its holds must
	// grant object 3 to the still-queued A.
	rel, _, err := s.Release(200, 2, false, []gdo.ObjectRelease{{Obj: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 1 || rel[0].Kind != gdo.EventGrant || rel[0].Family != 100 || rel[0].Obj != 3 {
		t.Fatalf("post-abort release events = %+v, want grant of O3 to fam 100", rel)
	}
	if rel[0].Shard != 1 {
		t.Errorf("grant stamped shard %d, want 1", rel[0].Shard)
	}
}

// TestCrossShardDeadlockSelfVictim: A is the youngest, so A's own closing
// request is refused with DeadlockAbort and its parked state is purged from
// every shard, leaving B's wait intact.
func TestCrossShardDeadlockSelfVictim(t *testing.T) {
	s := crossShardCycle(t, 2, 1) // ageA=2 (youngest), ageB=1

	res, ev, err := s.Acquire(3, ref(100, 1), 100, 2, 1, o2pl.Write)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != gdo.DeadlockAbort {
		t.Fatalf("youngest requester: status %v, want DeadlockAbort", res.Status)
	}
	if len(ev) != 0 {
		t.Fatalf("self-victim must abort silently, got events %+v", ev)
	}

	// A aborts and hands back object 2: B's surviving wait is granted.
	rel, _, err := s.Release(100, 1, false, []gdo.ObjectRelease{{Obj: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 1 || rel[0].Kind != gdo.EventGrant || rel[0].Family != 200 || rel[0].Obj != 2 {
		t.Fatalf("release events = %+v, want grant of O2 to fam 200", rel)
	}

	// A's purged request must be gone from shard 1: when B finishes, object
	// 3 goes Free instead of to the phantom waiter.
	if _, _, err := s.Release(200, 2, false, []gdo.ObjectRelease{{Obj: 2, Dirty: nil}, {Obj: 3}}); err != nil {
		t.Fatal(err)
	}
	if st, err := s.State(3); err != nil || st != gdo.Free {
		t.Errorf("O3 state = %v, %v, want Free", st, err)
	}
}

// TestRouterCommitOrder: per-shard release batches of one committing family
// must consume exactly one global sequence number, and distinct families
// must be ordered by release arrival.
func TestRouterCommitOrder(t *testing.T) {
	s := NewSharded(2, 2)
	for _, o := range []ids.ObjectID{2, 3} {
		if err := s.Register(o, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	acquire := func(obj ids.ObjectID, f ids.FamilyID) {
		t.Helper()
		res, _, err := s.Acquire(obj, ref(f, 1), f, uint64(f), 1, o2pl.Write)
		if err != nil || res.Status != gdo.GrantedNow {
			t.Fatalf("acquire %v by %v: %+v %v", obj, f, res, err)
		}
	}
	release := func(f ids.FamilyID, objs ...ids.ObjectID) {
		t.Helper()
		for _, o := range objs { // one batch per shard, like the engine
			if _, _, err := s.Release(f, 1, true, []gdo.ObjectRelease{{Obj: o}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	acquire(2, 10)
	acquire(3, 10)
	release(10, 2, 3)
	acquire(2, 20)
	release(20, 2)

	if seq, ok := s.CommitSeq(10); !ok || seq != 1 {
		t.Errorf("fam 10 commit seq = %d, %v, want 1 (split release must not double-count)", seq, ok)
	}
	if seq, ok := s.CommitSeq(20); !ok || seq != 2 {
		t.Errorf("fam 20 commit seq = %d, %v, want 2", seq, ok)
	}
	if _, ok := s.CommitSeq(99); ok {
		t.Error("unknown family has a commit seq")
	}
}

// TestShardedCommitOrderIsBounded: the router's commit-order bookkeeping is
// a window over the most recent assignments, not a record of every family
// that ever committed.
func TestShardedCommitOrderIsBounded(t *testing.T) {
	s := NewSharded(2, 1)
	const commits = 3 * gdo.CommitWindowSize
	for f := ids.FamilyID(1); f <= commits; f++ {
		if seq := s.AssignCommitSeq(f); seq != uint64(f) {
			t.Fatalf("family %v assigned %d", f, seq)
		}
	}
	if got := s.commits.Len(); got != gdo.CommitWindowSize {
		t.Errorf("window holds %d assignments after %d commits, want %d", got, commits, gdo.CommitWindowSize)
	}
	if seq := s.AssignCommitSeq(commits); seq != commits {
		t.Errorf("re-assignment inside the window gave %d, want %d", seq, commits)
	}
	if _, ok := s.CommitSeq(1); ok {
		t.Error("first family still remembered")
	}
}

// TestShardsOfAShardedHoldNoWindow: the order is kept once, in the router.
// A committing release assigns there and reaches the partitions as a plain
// release; an empty committing batch assigns and touches no partition.
func TestShardsOfAShardedHoldNoWindow(t *testing.T) {
	s := NewSharded(2, 1)
	for _, o := range []ids.ObjectID{2, 3} {
		if err := s.Register(o, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range []ids.ObjectID{2, 3} {
		if _, _, err := s.Acquire(o, ids.TxRef{Tx: 10, Node: 1}, 10, 10, 1, o2pl.Write); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Release(10, 1, true, []gdo.ObjectRelease{{Obj: o, Dirty: []ids.PageNum{0}}}); err != nil {
			t.Fatal(err)
		}
	}
	ev, stamps, err := s.Release(20, 1, true, nil)
	if err != nil || len(ev) != 0 || len(stamps) != 0 {
		t.Fatalf("empty committing release = %v, %v, %v", ev, stamps, err)
	}
	if _, _, err := s.Release(30, 1, false, nil); err != nil {
		t.Fatal(err)
	}

	for f, want := range map[ids.FamilyID]uint64{10: 1, 20: 2} {
		if seq, ok := s.CommitSeq(f); !ok || seq != want {
			t.Errorf("router: family %v has sequence %d, %v; want %d", f, seq, ok, want)
		}
		for i := 0; i < s.NumShards(); i++ {
			if seq, ok := s.Shard(i).CommitSeq(f); ok {
				t.Errorf("shard %d keeps its own sequence %d for family %v", i, seq, f)
			}
		}
	}
	if seq, ok := s.CommitSeq(30); ok {
		t.Errorf("an empty abort release was given sequence %d", seq)
	}
}
