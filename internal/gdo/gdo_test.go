package gdo

import (
	"errors"
	"testing"

	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// ref makes a TxRef for family f (using the family id as the tx id, which is
// fine for directory-level tests) at node n.
func ref(f ids.FamilyID, n ids.NodeID) ids.TxRef {
	return ids.TxRef{Tx: f, Node: n}
}

func newDir(t *testing.T, objs ...ids.ObjectID) *Directory {
	t.Helper()
	d := New(4)
	for _, o := range objs {
		if err := d.Register(o, 3, 1); err != nil {
			t.Fatalf("Register(%v): %v", o, err)
		}
	}
	return d
}

func mustAcquire(t *testing.T, d *Directory, obj ids.ObjectID, f ids.FamilyID, n ids.NodeID, m o2pl.Mode) AcquireResult {
	t.Helper()
	res, ev, err := d.Acquire(obj, ref(f, n), f, uint64(f), n, m)
	if err != nil {
		t.Fatalf("Acquire(%v, fam %v): %v", obj, f, err)
	}
	if len(ev) != 0 {
		t.Fatalf("unexpected side events: %v", ev)
	}
	return res
}

func TestRegisterValidation(t *testing.T) {
	d := New(2)
	if err := d.Register(1, 0, 1); err == nil {
		t.Error("zero pages should fail")
	}
	if err := d.Register(1, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(1, 3, 1); !errors.Is(err, ErrObjectExists) {
		t.Errorf("dup register: %v", err)
	}
	if n, err := d.NumPages(1); err != nil || n != 3 {
		t.Errorf("NumPages = %d, %v", n, err)
	}
	if _, err := d.NumPages(9); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("NumPages unknown: %v", err)
	}
}

func TestInitialPageMapAtOwner(t *testing.T) {
	d := newDir(t, 5)
	pm, err := d.PageMap(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pm) != 3 {
		t.Fatalf("page map len %d", len(pm))
	}
	for i, loc := range pm {
		if loc.Node != 1 || loc.Version != 1 {
			t.Errorf("page %d loc = %+v, want node 1 v1", i, loc)
		}
	}
	cs, err := d.CopySet(5)
	if err != nil || len(cs) != 1 || cs[0] != 1 {
		t.Errorf("CopySet = %v, %v", cs, err)
	}
}

func TestAcquireFreeGrantsImmediately(t *testing.T) {
	d := newDir(t, 1)
	res := mustAcquire(t, d, 1, 100, 2, o2pl.Write)
	if res.Status != GrantedNow || res.Mode != o2pl.Write {
		t.Fatalf("res = %+v", res)
	}
	if len(res.PageMap) != 3 || res.NumPages != 3 {
		t.Errorf("grant payload: %+v", res)
	}
	if st, _ := d.State(1); st != HeldWrite {
		t.Errorf("state = %v", st)
	}
}

func TestCrossFamilyReadSharing(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Read)
	res := mustAcquire(t, d, 1, 200, 3, o2pl.Read)
	if res.Status != GrantedNow {
		t.Fatalf("second reader: %+v", res)
	}
	if rc, _ := d.ReadCount(1); rc != 2 {
		t.Errorf("ReadCount = %d, want 2", rc)
	}
	if st, _ := d.State(1); st != HeldRead {
		t.Errorf("state = %v", st)
	}
}

func TestConflictingRequestQueues(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Write)
	res := mustAcquire(t, d, 1, 200, 3, o2pl.Read)
	if res.Status != Queued {
		t.Fatalf("conflicting request: %+v", res)
	}
	// Same family queues again into its existing list.
	res = mustAcquire(t, d, 1, 200, 3, o2pl.Write)
	if res.Status != Queued {
		t.Fatalf("second queued request: %+v", res)
	}
}

func TestReleaseHandsToNextFamilyList(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Write)
	mustAcquire(t, d, 1, 200, 3, o2pl.Read)
	mustAcquire(t, d, 1, 200, 3, o2pl.Write)
	mustAcquire(t, d, 1, 300, 4, o2pl.Read)

	ev, stamps, err := d.Release(100, 2, true, []ObjectRelease{{Obj: 1, Dirty: []ids.PageNum{0, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty pages recorded at site 2, version bumped to 2.
	if len(stamps) != 2 || stamps[0].Version != 2 || stamps[1].Version != 2 {
		t.Fatalf("stamps = %+v", stamps)
	}
	pm, _ := d.PageMap(1)
	if pm[0].Node != 2 || pm[0].Version != 2 || pm[1].Node != 1 || pm[1].Version != 1 || pm[2].Node != 2 {
		t.Errorf("page map = %+v", pm)
	}
	// Family 200's whole list is granted (mode W because it contains a W).
	if len(ev) != 1 {
		t.Fatalf("events = %+v", ev)
	}
	g := ev[0]
	if g.Kind != EventGrant || g.Family != 200 || g.Site != 3 || g.Mode != o2pl.Write || len(g.Reqs) != 2 {
		t.Errorf("grant = %+v", g)
	}
	if g.Upgrade {
		t.Error("not an upgrade")
	}
	// Family 300 still queued.
	if st, _ := d.State(1); st != HeldWrite {
		t.Errorf("state = %v", st)
	}
}

func TestReleaseFreesWhenNoWaiters(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Read)
	ev, stamps, err := d.Release(100, 2, true, []ObjectRelease{{Obj: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 || len(stamps) != 0 {
		t.Errorf("ev=%v stamps=%v", ev, stamps)
	}
	if st, _ := d.State(1); st != Free {
		t.Errorf("state = %v", st)
	}
}

func TestReleaseValidation(t *testing.T) {
	d := newDir(t, 1)
	if _, _, err := d.Release(100, 2, true, []ObjectRelease{{Obj: 9}}); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown obj: %v", err)
	}
	if _, _, err := d.Release(100, 2, true, []ObjectRelease{{Obj: 1}}); !errors.Is(err, ErrNotHolder) {
		t.Errorf("not holder: %v", err)
	}
	mustAcquire(t, d, 1, 100, 2, o2pl.Read)
	if _, _, err := d.Release(100, 2, true, []ObjectRelease{{Obj: 1, Dirty: []ids.PageNum{0}}}); !errors.Is(err, ErrBadRelease) {
		t.Errorf("dirty under read lock: %v", err)
	}
}

func TestReleaseDirtyPageOutOfRange(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Write)
	if _, _, err := d.Release(100, 2, true, []ObjectRelease{{Obj: 1, Dirty: []ids.PageNum{7}}}); !errors.Is(err, ErrBadRelease) {
		t.Errorf("out-of-range dirty: %v", err)
	}
}

func TestRepeatAcquireByHoldingFamily(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Write)
	// Another transaction of the same family (fresh ref) gets it at once.
	res, ev, err := d.Acquire(1, ids.TxRef{Tx: 101, Node: 2}, 100, uint64(100), 2, o2pl.Read)
	if err != nil || len(ev) != 0 || res.Status != GrantedNow || res.Mode != o2pl.Write {
		t.Fatalf("repeat acquire: %+v, %v, %v", res, ev, err)
	}
}

func TestUpgradeSoleHolderImmediate(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Read)
	res := mustAcquire(t, d, 1, 100, 2, o2pl.Write)
	if res.Status != GrantedNow || res.Mode != o2pl.Write {
		t.Fatalf("sole-holder upgrade: %+v", res)
	}
	if st, _ := d.State(1); st != HeldWrite {
		t.Errorf("state = %v", st)
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Read)
	mustAcquire(t, d, 1, 200, 3, o2pl.Read)
	res := mustAcquire(t, d, 1, 100, 2, o2pl.Write)
	if res.Status != Queued {
		t.Fatalf("upgrade with other readers: %+v", res)
	}
	// New readers are blocked while an upgrade pends (anti-starvation).
	res = mustAcquire(t, d, 1, 300, 4, o2pl.Read)
	if res.Status != Queued {
		t.Fatalf("reader during pending upgrade: %+v", res)
	}
	// Other reader releases → upgrade granted, then still held-write so the
	// queued reader of family 300 keeps waiting.
	ev, _, err := d.Release(200, 3, true, []ObjectRelease{{Obj: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Kind != EventGrant || !ev[0].Upgrade || ev[0].Family != 100 || ev[0].Mode != o2pl.Write {
		t.Fatalf("upgrade grant = %+v", ev)
	}
	if st, _ := d.State(1); st != HeldWrite {
		t.Errorf("state = %v", st)
	}
}

func TestUpgradeDeadlockBetweenTwoUpgraders(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Read)
	mustAcquire(t, d, 1, 200, 3, o2pl.Read)
	res := mustAcquire(t, d, 1, 100, 2, o2pl.Write)
	if res.Status != Queued {
		t.Fatalf("first upgrade: %+v", res)
	}
	// Second upgrader closes the cycle; it is the younger family → victim.
	res2, ev, err := d.Acquire(1, ref(200, 3), 200, uint64(200), 3, o2pl.Write)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != DeadlockAbort {
		t.Fatalf("second upgrade = %+v (events %v)", res2, ev)
	}
	// Victim family aborts: releases its read hold; family 100's upgrade
	// should then be granted.
	ev, _, err = d.Release(200, 3, true, []ObjectRelease{{Obj: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || !ev[0].Upgrade || ev[0].Family != 100 {
		t.Fatalf("post-abort events = %+v", ev)
	}
}

func TestClassicTwoObjectDeadlock(t *testing.T) {
	d := newDir(t, 1, 2)
	mustAcquire(t, d, 1, 100, 2, o2pl.Write) // F100 holds O1
	mustAcquire(t, d, 2, 200, 3, o2pl.Write) // F200 holds O2
	res := mustAcquire(t, d, 2, 100, 2, o2pl.Write)
	if res.Status != Queued {
		t.Fatalf("F100 on O2: %+v", res)
	}
	// F200 requesting O1 closes the cycle; F200 is younger → victim is the
	// requester itself.
	res2, ev, err := d.Acquire(1, ref(200, 3), 200, uint64(200), 3, o2pl.Write)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != DeadlockAbort || len(ev) != 0 {
		t.Fatalf("deadlock not detected: %+v, %v", res2, ev)
	}
	// Victim releases its holds; F100's queued O2 request is granted.
	ev, _, err = d.Release(200, 3, true, []ObjectRelease{{Obj: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Kind != EventGrant || ev[0].Family != 100 || ev[0].Obj != 2 {
		t.Fatalf("grant after victim release = %+v", ev)
	}
}

func TestDeadlockVictimIsYoungestWhenOlderRequests(t *testing.T) {
	d := newDir(t, 1, 2)
	mustAcquire(t, d, 1, 200, 2, o2pl.Write) // younger F200 holds O1
	mustAcquire(t, d, 2, 100, 3, o2pl.Write) // older F100 holds O2
	res := mustAcquire(t, d, 2, 200, 2, o2pl.Write)
	if res.Status != Queued {
		t.Fatalf("F200 on O2: %+v", res)
	}
	// Older F100 requests O1, closing the cycle. Victim must be the younger
	// F200 (waiting on O2) — delivered as a side event; F100 stays queued.
	res2, ev, err := d.Acquire(1, ref(100, 3), 100, uint64(100), 3, o2pl.Write)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != Queued {
		t.Fatalf("older requester should queue: %+v", res2)
	}
	if len(ev) != 1 || ev[0].Kind != EventDeadlockAbort || ev[0].Family != 200 || ev[0].Obj != 2 {
		t.Fatalf("victim events = %+v", ev)
	}
	// Victim family releases its O1 hold; F100 gets O1.
	ev, _, err = d.Release(200, 2, true, []ObjectRelease{{Obj: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Kind != EventGrant || ev[0].Family != 100 || ev[0].Obj != 1 {
		t.Fatalf("grant = %+v", ev)
	}
}

func TestGrantEventCarriesPageMap(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Write)
	mustAcquire(t, d, 1, 200, 3, o2pl.Read)
	ev, _, err := d.Release(100, 2, true, []ObjectRelease{{Obj: 1, Dirty: []ids.PageNum{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 {
		t.Fatalf("events = %v", ev)
	}
	pm := ev[0].PageMap
	if len(pm) != 3 || pm[1].Node != 2 || pm[1].Version != 2 {
		t.Errorf("grant page map = %+v", pm)
	}
	if ev[0].NumPages != 3 {
		t.Errorf("NumPages = %d", ev[0].NumPages)
	}
}

func TestCopySetGrowsWithGrants(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Read)
	mustAcquire(t, d, 1, 200, 3, o2pl.Read)
	cs, _ := d.CopySet(1)
	want := []ids.NodeID{1, 2, 3}
	if len(cs) != 3 || cs[0] != want[0] || cs[1] != want[1] || cs[2] != want[2] {
		t.Errorf("CopySet = %v, want %v", cs, want)
	}
	if _, err := d.CopySet(9); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown: %v", err)
	}
}

func TestObjectsSorted(t *testing.T) {
	d := newDir(t, 3, 1, 2)
	objs := d.Objects()
	if len(objs) != 3 || objs[0] != 1 || objs[1] != 2 || objs[2] != 3 {
		t.Errorf("Objects = %v", objs)
	}
}

func TestStateAndStatusStrings(t *testing.T) {
	if Free.String() != "free" || HeldRead.String() != "held-read" || HeldWrite.String() != "held-write" {
		t.Error("LockState strings")
	}
	if LockState(9).String() == "" {
		t.Error("unknown LockState string empty")
	}
	if GrantedNow.String() != "granted" || Queued.String() != "queued" || DeadlockAbort.String() != "deadlock-abort" ||
		Unregistered.String() != "unregistered" {
		t.Error("AcquireStatus strings")
	}
	if AcquireStatus(9).String() == "" {
		t.Error("unknown AcquireStatus string empty")
	}
}

func TestAcquireUnknownObject(t *testing.T) {
	d := New(2)
	_, _, err := d.Acquire(1, ref(100, 2), 100, uint64(100), 2, o2pl.Read)
	if !errors.Is(err, ErrUnknownObject) {
		t.Errorf("got %v", err)
	}
}

func TestStateUnknownObject(t *testing.T) {
	d := New(2)
	if _, err := d.State(1); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("State: %v", err)
	}
	if _, err := d.ReadCount(1); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("ReadCount: %v", err)
	}
	if _, err := d.PageMap(1); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("PageMap: %v", err)
	}
}

func TestReadCountZeroWhenWriteHeld(t *testing.T) {
	d := newDir(t, 1)
	mustAcquire(t, d, 1, 100, 2, o2pl.Write)
	if rc, _ := d.ReadCount(1); rc != 0 {
		t.Errorf("ReadCount = %d", rc)
	}
}
