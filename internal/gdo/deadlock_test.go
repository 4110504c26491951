package gdo

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// TestFirstAcquiresBuildNoWaitsForGraph: a family nobody waits on cannot
// close a cycle, so queueing it — and re-pointing it at the next holder —
// must not build the waits-for graph, however long the queue it joins. The
// detector's age list is allocated by the first build, which makes "never
// built" observable.
func TestFirstAcquiresBuildNoWaitsForGraph(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 1, 1, o2pl.Write)
	const waiters = 2000
	for f := ids.FamilyID(2); f < 2+waiters; f++ {
		if res := mustAcquire(t, d, 1, f, 2, o2pl.Write); res.Status != Queued {
			t.Fatalf("family %v: %+v, want Queued", f, res)
		}
	}
	if d.wf.Ages != nil {
		t.Fatal("queueing first-acquire families built the waits-for graph")
	}

	// The hand-off re-checks every family still queued; none holds anything.
	ev, _, err := d.Release(1, 1, true, []ObjectRelease{{Obj: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Kind != EventGrant || ev[0].Family != 2 {
		t.Fatalf("hand-off events = %+v, want one grant to family 2", ev)
	}
	if d.wf.Ages != nil {
		t.Error("re-pointing first-acquire families built the waits-for graph")
	}

	// The early-out is not blindness: family 2 now holds what the others
	// wait for, so when it queues behind one of them the cycle is found.
	if err := d.Register(2, 1, 1); err != nil {
		t.Fatal(err)
	}
	mustAcquire(t, d, 2, 3, 2, o2pl.Write) // family 3, queued on object 1, holds object 2
	res, ev, err := d.Acquire(2, ref(2, 2), 2, 2, 2, o2pl.Write)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Queued || len(ev) != 1 || ev[0].Kind != EventDeadlockAbort || ev[0].Family != 3 || ev[0].Obj != 1 {
		t.Errorf("2 → 3 → 2: status %v, events %+v; want family 3 aborted on object 1", res.Status, ev)
	}
}

// TestEveryCycleThroughANewWaitIsBroken: one request can close several
// cycles, one per holder it waits on. Aborting a single victim would leave
// the others standing with nobody due to look again — the families on them
// are all blocked — so the detector aborts until the requester reaches no
// cycle.
func TestEveryCycleThroughANewWaitIsBroken(t *testing.T) {
	const (
		s, h1, h2, a = ids.FamilyID(10), ids.FamilyID(20), ids.FamilyID(30), ids.FamilyID(40)
		o, p, q, r   = ids.ObjectID(1), ids.ObjectID(2), ids.ObjectID(3), ids.ObjectID(4)
	)
	d := newDir(t, o, p, q, r)
	mustAcquire(t, d, o, h1, 2, o2pl.Read)
	mustAcquire(t, d, o, h2, 3, o2pl.Read)
	mustAcquire(t, d, p, a, 4, o2pl.Write)
	mustAcquire(t, d, q, s, 1, o2pl.Write)
	mustAcquire(t, d, r, s, 1, o2pl.Write)
	mustAcquire(t, d, p, h1, 2, o2pl.Write) // h1 → a
	mustAcquire(t, d, q, a, 4, o2pl.Write)  // a → s
	mustAcquire(t, d, r, h2, 3, o2pl.Write) // h2 → s

	// s → h1 → a → s and s → h2 → s close together.
	res, ev, err := d.Acquire(o, ref(s, 1), s, uint64(s), 1, o2pl.Write)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Queued {
		t.Fatalf("oldest family should stay queued: %+v", res)
	}
	if len(ev) != 2 ||
		ev[0].Kind != EventDeadlockAbort || ev[0].Family != a || ev[0].Obj != q ||
		ev[1].Kind != EventDeadlockAbort || ev[1].Family != h2 || ev[1].Obj != r {
		t.Fatalf("victim events = %+v, want aborts of family %v on %v and family %v on %v", ev, a, q, h2, r)
	}
	for _, f := range []ids.FamilyID{s, h1, h2, a} {
		if v, cycle := d.findDeadlockVictimLocked(f); cycle {
			t.Errorf("a cycle through family %v survived (next victim %v)", f, v)
		}
	}
}

// TestReaderJoiningAQueuedWriterIsChecked: a reader granted next to other
// readers becomes one more family the queued writers wait on. If that
// reader already waits on one of those writers (a parallel sub-transaction
// of its family), the grant itself closes the cycle.
func TestReaderJoiningAQueuedWriterIsChecked(t *testing.T) {
	const (
		r1, w, r2 = ids.FamilyID(10), ids.FamilyID(20), ids.FamilyID(30)
		e, q      = ids.ObjectID(1), ids.ObjectID(2)
	)
	d := newDir(t, e, q)
	mustAcquire(t, d, e, r1, 1, o2pl.Read)
	mustAcquire(t, d, q, w, 2, o2pl.Write)
	mustAcquire(t, d, e, w, 2, o2pl.Write)  // w → r1
	mustAcquire(t, d, q, r2, 3, o2pl.Write) // r2 → w

	res, ev, err := d.Acquire(e, ref(r2, 3), r2, uint64(r2), 3, o2pl.Read)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != GrantedNow {
		t.Fatalf("reader sharing: %+v", res)
	}
	if len(ev) != 1 || ev[0].Kind != EventDeadlockAbort || ev[0].Family != r2 || ev[0].Obj != q {
		t.Fatalf("events = %+v, want the younger family %v aborted on %v", ev, r2, q)
	}
}

// TestRecheckSweepSeesEarlierAbort: a hand-off re-checks every waiter of the
// object against one waits-for graph, built once per sweep, and an abort
// mid-sweep must reach the next waiter's search. W queues for x behind X and
// for y behind its readers Y1 and Y2, which both queue for x too. X's
// release grants x to W and closes two cycles, Y1 → W → Y1 and
// Y2 → W → Y2. Y1, younger than W, aborts itself; Y2's search must then see
// Y1's waits gone and abort Y2, not pick Y1 again. A search over the graph
// built before Y1's abort keeps picking Y1 and never returns, so the release
// runs under a deadline that fails with every goroutine's stack.
func TestRecheckSweepSeesEarlierAbort(t *testing.T) {
	const (
		x, y         = ids.ObjectID(1), ids.ObjectID(2)
		X, W, Y1, Y2 = ids.FamilyID(10), ids.FamilyID(11), ids.FamilyID(12), ids.FamilyID(13)
		deadline     = 20 * time.Second
	)
	d := newDir(t, x, y)
	mustAcquire(t, d, x, X, 1, o2pl.Write)
	mustAcquire(t, d, y, Y1, 3, o2pl.Read)
	mustAcquire(t, d, y, Y2, 4, o2pl.Read)
	mustAcquire(t, d, x, W, 2, o2pl.Write)  // W → X
	mustAcquire(t, d, y, W, 2, o2pl.Write)  // W → Y1, Y2
	mustAcquire(t, d, x, Y1, 3, o2pl.Write) // Y1 → X
	mustAcquire(t, d, x, Y2, 4, o2pl.Write) // Y2 → X

	done := make(chan []Event, 1)
	go func() {
		ev, _, err := d.Release(X, 1, false, []ObjectRelease{{Obj: x}})
		if err != nil {
			t.Error(err)
		}
		done <- ev
	}()
	var ev []Event
	select {
	case ev = <-done:
	case <-time.After(deadline):
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s: the hand-off's re-check sweep still running after %v\n%s", t.Name(), deadline, buf[:runtime.Stack(buf, true)]))
	}
	if len(ev) != 3 || ev[0].Kind != EventGrant || ev[0].Family != W || ev[0].Obj != x {
		t.Fatalf("hand-off events = %+v, want x granted to %v, then %v and %v aborted", ev, W, Y1, Y2)
	}
	for i, f := range []ids.FamilyID{Y1, Y2} {
		if e := ev[1+i]; e.Kind != EventDeadlockAbort || e.Family != f || e.Obj != x {
			t.Errorf("event %d = %+v, want %v's wait on x aborted", 1+i, e, f)
		}
	}
	if v, cycle := d.findDeadlockVictimLocked(W); cycle {
		t.Errorf("a cycle through %v survived the sweep (next victim %v)", W, v)
	}
}
