//go:build !race

package directory

import (
	"slices"
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/wire"
)

// contendedAllocs is what one pass of TestAllocsContendedAcquire's rounds
// allocates: the replies to its 18 acquires and 14 releases, the page-map
// snapshot of each grant, the queue record and request list of each parked
// request, the upgrade records, the events each call returns and the
// messages that deliver them. The family-hold freelist, the waits-for
// scratch and the frame pools absorb everything else after warmup.
const contendedAllocs = 81

// contendedDir drives a directory the way a directory host does:
// each request is encoded to a pooled frame, served through the wire form of
// the lock service, and its reply and every event it releases are encoded to
// pooled frames in turn. The request messages are reused, so what a pass
// allocates is the directory's.
type contendedDir struct {
	t    *testing.T
	s    *gdo.Directory
	acq  wire.AcquireReq
	rel  wire.ReleaseReq
	rels [2]gdo.ObjectRelease
	got  []gdo.EventKind // the kinds of the events of the current pass
}

func (c *contendedDir) send(m wire.Msg) {
	wire.ReleaseFrame(wire.EncodeFrame(wire.Envelope{ReqID: 1, From: 1, To: 2}, m))
}

func (c *contendedDir) events(events []gdo.Event) {
	for _, ev := range events {
		c.got = append(c.got, ev.Kind)
		c.send(EventMsg(ev))
	}
}

// acquire has family f at site ask for obj in mode and checks the reply.
func (c *contendedDir) acquire(obj ids.ObjectID, f ids.FamilyID, site ids.NodeID, mode o2pl.Mode, want gdo.AcquireStatus) {
	c.acq = wire.AcquireReq{Obj: obj, Ref: ids.TxRef{Tx: ids.TxID(f), Node: site}, Family: f, Age: uint64(f), Site: site, Mode: mode}
	c.send(&c.acq)
	resp, events, err := ServeAcquire(c.s, &c.acq)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.Status != want {
		c.t.Fatalf("acquire of %v by %v: status %v, want %v", obj, f, resp.Status, want)
	}
	c.send(resp)
	c.events(events)
}

// release has family f at site release objs in one batch.
func (c *contendedDir) release(f ids.FamilyID, site ids.NodeID, commit bool, objs ...ids.ObjectID) {
	for i, obj := range objs {
		c.rels[i] = gdo.ObjectRelease{Obj: obj}
	}
	c.rel = wire.ReleaseReq{Family: f, Site: site, Commit: commit, Rels: c.rels[:len(objs)]}
	c.send(&c.rel)
	resp, events, err := ServeRelease(c.s, &c.rel)
	if err != nil {
		c.t.Fatal(err)
	}
	c.send(resp)
	c.events(events)
}

// queueRound is round 1: b's write request for x queues behind a's and is
// granted on a's release.
func (c *contendedDir) queueRound(x ids.ObjectID, a, b ids.FamilyID) {
	c.acquire(x, a, 1, o2pl.Write, gdo.GrantedNow)
	c.acquire(x, b, 2, o2pl.Write, gdo.Queued)
	c.release(a, 1, false, x)
	c.release(b, 2, false, x)
}

// cycleRound is round 2, a two-family cycle: b (younger) waits on y, which
// a holds, and a's request for x, which b holds, closes the cycle; b is the
// victim, and a is granted x once b releases it.
func (c *contendedDir) cycleRound(x, y ids.ObjectID, a, b ids.FamilyID) {
	c.acquire(y, a, 1, o2pl.Write, gdo.GrantedNow)
	c.acquire(x, b, 2, o2pl.Write, gdo.GrantedNow)
	c.acquire(y, b, 2, o2pl.Write, gdo.Queued)
	c.acquire(x, a, 1, o2pl.Write, gdo.Queued)
	c.release(b, 2, false, x)
	c.release(a, 1, false, x, y)
}

// TestAllocsContendedAcquire gates the directory's contended path, the one
// the uncontended gates never reach: parked requests, deferred grants, the
// deadlock check and the recall of a site-retained grant. Each pass runs
// five rounds over fresh families:
//
//  1. a write request queues behind a writer and is granted on its release;
//  2. two families close a waits-for cycle; the younger, which waits on
//     another object, is aborted by an Abort event and the older is
//     granted, then releases both objects in one batch;
//  3. two readers of one object both ask to upgrade to write; the younger's
//     request closes a cycle and is refused, and the elder upgrades once the
//     younger releases;
//  4. a queued family is withdrawn with PurgeFamily, as a host withdraws
//     a requester it aborts;
//  5. a site earns a retained grant, a request from another site recalls
//     it, and the site hands it back.
func TestAllocsContendedAcquire(t *testing.T) {
	c := &contendedDir{t: t, s: gdo.New(2)}
	c.s.SetRetainGrants(true)
	const x, y, z = 1, 2, 3
	for obj := ids.ObjectID(x); obj <= z; obj++ {
		if err := c.s.Register(obj, 2, 1); err != nil {
			t.Fatal(err)
		}
	}
	var fam ids.FamilyID
	pass := func() {
		c.got = c.got[:0]
		fam += 10
		a, b := fam+1, fam+2
		c.queueRound(x, a, b)
		c.cycleRound(x, y, fam+3, fam+4)

		// 3. Two readers both ask to upgrade: a waits for b, and b, younger,
		// would wait for a, so b's own request is the one aborted; a
		// upgrades once b releases.
		a, b = fam+5, fam+6
		c.acquire(x, a, 1, o2pl.Read, gdo.GrantedNow)
		c.acquire(x, b, 2, o2pl.Read, gdo.GrantedNow)
		c.acquire(x, a, 1, o2pl.Write, gdo.Queued)
		c.acquire(x, b, 2, o2pl.Write, gdo.DeadlockAbort)
		c.release(b, 2, false, x)
		c.release(a, 1, false, x)

		// 4. A queued family withdrawn: a's release grants nothing.
		a, b = fam+7, fam+8
		c.acquire(x, a, 1, o2pl.Write, gdo.GrantedNow)
		c.acquire(x, b, 2, o2pl.Write, gdo.Queued)
		c.s.PurgeFamily(b)
		c.release(a, 1, false, x)

		// 5. KeepStreak committing roots at site 1 leave z there; a request
		// from site 2 recalls it and site 1 hands it back.
		for i := ids.FamilyID(0); i < gdo.KeepStreak; i++ {
			f := fam*10 + i
			c.acquire(z, f, 1, o2pl.Write, gdo.GrantedNow)
			c.release(f, 1, true, z)
		}
		b = fam + 9
		c.acquire(z, b, 2, o2pl.Write, gdo.Queued)
		c.release(ids.SiteFamily(1), 1, false, z)
		c.release(b, 2, false, z)
	}
	pass()
	want := []gdo.EventKind{
		gdo.EventGrant,                         // 1
		gdo.EventDeadlockAbort, gdo.EventGrant, // 2
		gdo.EventGrant,                  // 3
		gdo.EventRecall, gdo.EventGrant, // 5
	}
	if !slices.Equal(c.got, want) {
		t.Fatalf("a pass releases events %v, want %v", c.got, want)
	}
	if n := testing.AllocsPerRun(500, pass); n > contendedAllocs {
		t.Errorf("a pass over the contended rounds allocates %.2f, want ≤ %v", n, contendedAllocs)
	}
}

// TestAllocsUnionSearch gates the search a tier-1 host runs over the
// shards it serves as primary (detect.go), at 2 and 4 directories, each
// with a family queued on it: findVictimFrom over a ring of families that
// closes a cycle through every directory, and sweep over a star that closes
// none. The union graph is reused, so at steady state neither allocates.
func TestAllocsUnionSearch(t *testing.T) {
	for _, n := range []int{2, 4} {
		// Family i+1 holds object i, the only object of directory i. In the
		// ring it queues for object i+1 (the last family for object 0); in
		// the star family n+1, which holds nothing, queues for every object.
		build := func(ring bool) []*gdo.Directory {
			dirs := make([]*gdo.Directory, n)
			for i := range dirs {
				dirs[i] = gdo.New(1)
				if err := dirs[i].Register(ids.ObjectID(i), 1, 1); err != nil {
					t.Fatal(err)
				}
			}
			acquire := func(f ids.FamilyID, obj int, want gdo.AcquireStatus) {
				res, _, err := dirs[obj].Acquire(ids.ObjectID(obj), ids.TxRef{Tx: ids.TxID(f), Node: 1}, f, uint64(f), 1, o2pl.Write)
				if err != nil || res.Status != want {
					t.Fatalf("n=%d: acquire of %d by %v: %v, %v; want %v", n, obj, f, res.Status, err, want)
				}
			}
			for i := range dirs {
				acquire(ids.FamilyID(i+1), i, gdo.GrantedNow)
			}
			for i := range dirs {
				if ring {
					acquire(ids.FamilyID(i+1), (i+1)%n, gdo.Queued)
				} else {
					acquire(ids.FamilyID(n+1), i, gdo.Queued)
				}
			}
			return dirs
		}
		var g gdo.WaitGraph
		ring, star := build(true), build(false)
		find := func() {
			if v, ok := findVictimFrom(&g, ring, 1); !ok || v != ids.FamilyID(n) {
				t.Fatalf("n=%d: the ring's victim is %v, %v; want the youngest, %d", n, v, ok, n)
			}
		}
		walk := func() {
			sweep(&g, star, func(v ids.FamilyID) { t.Fatalf("n=%d: sweep of an acyclic star aborted %v", n, v) })
		}
		find()
		walk()
		if a := testing.AllocsPerRun(200, find); a != 0 {
			t.Errorf("n=%d: findVictimFrom over the ring allocates %.2f, want 0", n, a)
		}
		if a := testing.AllocsPerRun(200, walk); a != 0 {
			t.Errorf("n=%d: sweep over the star allocates %.2f, want 0", n, a)
		}
	}
}
