package node_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/wire"
)

// Site-retained grants at the engine, over the concurrent threadNet: run
// these under -race. The directory is a single gdo.Directory with retention
// on, co-located (object 1's partition is at node 2, object 2's at node 1).

// retainCluster is a two-node thread cluster with retention on and a tally
// of what crossed the wire.
type retainCluster struct {
	net     *threadNet
	dir     *gdo.Directory
	engines map[ids.NodeID]*node.Engine

	mu   sync.Mutex
	seen []string // "acquire", "adopt", "release", "hand-back", "recall", "grant" in delivery order
	// hold, when non-nil, is consulted for every message about to be
	// delivered; the channel it returns (if any) delays the delivery.
	hold func(m wire.Msg) <-chan struct{}
}

func newRetainCluster(t *testing.T, objects int, hook func(*node.Ctx)) *retainCluster {
	t.Helper()
	c := &retainCluster{net: newThreadNet(), dir: gdo.New(2)}
	c.dir.SetRetainGrants(true)
	c.net.tap = func(_, _ ids.NodeID, m wire.Msg) {
		var what string
		switch t := m.(type) {
		case *wire.AcquireReq:
			what = "acquire"
			if t.Adopt {
				what = "adopt"
			}
		case *wire.ReleaseReq:
			what = "release"
			if ids.IsSiteFamily(t.Family) {
				what = "hand-back"
			}
		case *wire.Recall:
			what = "recall"
		case *wire.Grant:
			what = "grant"
		default:
			return
		}
		c.mu.Lock()
		hold := c.hold
		c.mu.Unlock()
		if hold != nil {
			if ch := hold(m); ch != nil {
				<-ch
			}
		}
		c.mu.Lock()
		c.seen = append(c.seen, what)
		c.mu.Unlock()
	}
	c.engines, _ = newThreadClusterOn(t, c.net, c.dir, 1, 2, objects, hook)
	return c
}

// count reports how many messages of a kind have been delivered.
func (c *retainCluster) count(what string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.seen {
		if s == what {
			n++
		}
	}
	return n
}

func (c *retainCluster) run(t *testing.T, site ids.NodeID, obj ids.ObjectID, method string, arg []byte) []byte {
	t.Helper()
	out, _, err := c.engines[site].Run(obj, method, arg)
	if err != nil {
		t.Fatalf("%s on %v at node %d: %v", method, obj, site, err)
	}
	return out
}

// earn runs method on obj at site until the directory leaves the grant
// there: gdo.KeepStreak roots.
func (c *retainCluster) earn(t *testing.T, site ids.NodeID, obj ids.ObjectID, method string) {
	t.Helper()
	for i := 0; i < gdo.KeepStreak; i++ {
		c.run(t, site, obj, method, nil)
	}
}

// counter reads obj's counter from site.
func (c *retainCluster) counter(t *testing.T, site ids.NodeID, obj ids.ObjectID) int {
	t.Helper()
	out := c.run(t, site, obj, "get", nil)
	c.net.wait()
	return int(out[0])
}

// TestRetainedGrantRepeatAndRecall walks the whole life of a retained
// grant: gdo.KeepStreak roots at one site earn it, the following ones send
// no acquire, a root at the other site recalls it and it comes back idle, and
// the first site starts over.
func TestRetainedGrantRepeatAndRecall(t *testing.T) {
	c := newRetainCluster(t, 1, nil)
	c.earn(t, 1, 1, "set")
	if got := c.count("acquire"); got != gdo.KeepStreak {
		t.Fatalf("%d first roots sent %d acquires", gdo.KeepStreak, got)
	}
	if dump := c.dir.DebugDump(); !strings.Contains(dump, "sitehold{site=node(1) mode=W}") {
		t.Fatalf("after the earning releases the directory holds:\n%s", dump)
	}
	if dump := c.engines[1].DebugDump(); !strings.Contains(dump, "retained{O1 mode=W user=tx(-)") {
		t.Fatalf("after the earning releases node 1 holds:\n%s", dump)
	}
	for i := 0; i < 5; i++ {
		c.run(t, 1, 1, "set", nil)
	}
	if got := c.count("acquire") + c.count("adopt"); got != gdo.KeepStreak {
		t.Fatalf("repeat roots sent acquires: %d in all, want the first %d", got, gdo.KeepStreak)
	}
	if got := c.count("release"); got != gdo.KeepStreak+5 {
		t.Fatalf("%d committing releases for %d roots", got, gdo.KeepStreak+5)
	}

	c.run(t, 2, 1, "set", nil)
	c.net.wait()
	if r, h, g := c.count("recall"), c.count("hand-back"), c.count("grant"); r != 1 || h != 1 || g != 1 {
		t.Fatalf("a root at the other site took %d recalls, %d hand-backs, %d grants; want one of each", r, h, g)
	}
	if dump := c.dir.DebugDump() + c.engines[1].DebugDump(); dump != "" {
		t.Fatalf("after the hand-back something is still held:\n%s", dump)
	}
	c.run(t, 1, 1, "set", nil)
	if got := c.count("acquire"); got != gdo.KeepStreak+2 {
		t.Fatalf("%d acquires, want %d: node 1's next root must ask the directory again", got, gdo.KeepStreak+2)
	}
	if got := c.counter(t, 2, 1); got != gdo.KeepStreak+7 {
		t.Fatalf("counter = %d after %d increments", got, gdo.KeepStreak+7)
	}
}

// TestRecallRacesCommittingRelease hammers one object from the site that
// keeps earning the grant while the other site keeps recalling it: recalls
// land on idle grants, on grants in use, on releases in flight and ahead of
// the reply that names the object kept. No increment may be lost and no
// root may hang.
func TestRecallRacesCommittingRelease(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	// One worker at node 1: a second family there would queue at the
	// directory behind the first, and a release that leaves a queue keeps
	// nothing.
	const (
		workers = 1
		foreign = 200
	)
	c := newRetainCluster(t, 1, nil)
	var wg sync.WaitGroup
	var stop atomic.Bool
	var committed atomic.Int64
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, _, err := c.engines[1].Run(1, "set", nil); err != nil {
					errs <- fmt.Errorf("node 1: %w", err)
					return
				}
				committed.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < foreign; i++ {
			if _, _, err := c.engines[2].Run(1, "set", nil); err != nil {
				errs <- fmt.Errorf("node 2: %w", err)
				return
			}
			committed.Add(1)
			// Let node 1 earn the grant again: KeepStreak grants and more.
			for earned := committed.Load() + 2*gdo.KeepStreak; committed.Load() < earned && !t.Failed(); {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("hung; directory:\n%snode 1:\n%snode 2:\n%s", c.dir.DebugDump(), c.engines[1].DebugDump(), c.engines[2].DebugDump())
	}
	c.net.wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	t.Logf("%d recalls, %d hand-backs, %d adopts, %d acquires for %d roots",
		c.count("recall"), c.count("hand-back"), c.count("adopt"), c.count("acquire"), committed.Load())
	if c.count("recall") < foreign/2 {
		t.Errorf("only %d recalls for %d roots at the other site: the run did not exercise retention", c.count("recall"), foreign)
	}
	if got, want := c.counter(t, 2, 1), int(committed.Load()%256); got != want {
		t.Errorf("counter = %d, want %d: an increment was lost", got, want)
	}
}

// TestAdoptPrecedesRelease: a recall that finds the grant in use sends an
// Adopt for the family using it, and that family's committing release
// waits for the Adopt's answer — an Adopt arriving after the release could
// rename a later site hold to a family that no longer exists.
func TestAdoptPrecedesRelease(t *testing.T) {
	inBody, proceed := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c := newRetainCluster(t, 2, func(*node.Ctx) {
		once.Do(func() {
			close(inBody)
			<-proceed
		})
	})
	c.earn(t, 1, 1, "set")
	adoptHeld, letAdopt := make(chan struct{}), make(chan struct{})
	c.mu.Lock()
	c.hold = func(m wire.Msg) <-chan struct{} {
		if req, ok := m.(*wire.AcquireReq); ok && req.Adopt {
			close(adoptHeld)
			return letAdopt
		}
		return nil
	}
	c.mu.Unlock()

	// F runs on the retained grant of object 1 and stops inside its body.
	fDone := make(chan error, 1)
	go func() {
		_, _, err := c.engines[1].Run(1, "then", []byte{2})
		fDone <- err
	}()
	<-inBody
	// G at node 2 wants object 1: queued, recall, Adopt for F — held on the wire.
	gDone := make(chan error, 1)
	go func() {
		_, _, err := c.engines[2].Run(1, "set", nil)
		gDone <- err
	}()
	<-adoptHeld
	releases := c.count("release")
	close(proceed) // F finishes its body and goes to commit
	select {
	case err := <-fDone:
		t.Fatalf("F committed (err %v) while its Adopt was still on the wire", err)
	case <-time.After(100 * time.Millisecond):
	}
	if got := c.count("release"); got != releases {
		t.Fatalf("F's release reached the directory before its Adopt")
	}
	close(letAdopt)
	for _, ch := range []chan error{fDone, gDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("hung; directory:\n%snode 1:\n%s", c.dir.DebugDump(), c.engines[1].DebugDump())
		}
	}
	c.net.wait()
	if a, o1, o2 := c.count("adopt"), c.counter(t, 2, 1), c.counter(t, 2, 2); a != 1 || o1 != gdo.KeepStreak+2 || o2 != 1 {
		t.Fatalf("%d adopts, counters %d and %d; want 1, %d and 1", a, o1, o2, gdo.KeepStreak+2)
	}
}

// TestRetainedGrantUpgrade: a grant retained in Read mode serves readers
// here with no message and readers elsewhere with no recall; a writer here
// upgrades it through Adopt, and the release leaves it retained in Write
// mode.
func TestRetainedGrantUpgrade(t *testing.T) {
	c := newRetainCluster(t, 1, nil)
	c.earn(t, 1, 1, "get")
	c.run(t, 1, 1, "get", nil)
	if dump := c.dir.DebugDump(); c.count("acquire") != gdo.KeepStreak || !strings.Contains(dump, "sitehold{site=node(1) mode=R}") {
		t.Fatalf("%d acquires for %d readers; directory:\n%s", c.count("acquire"), gdo.KeepStreak+1, dump)
	}
	c.run(t, 2, 1, "get", nil) // shares the site hold
	c.net.wait()
	if c.count("recall") != 0 || c.count("acquire") != gdo.KeepStreak+1 {
		t.Fatalf("a reader elsewhere took %d recalls and %d acquires in all, want 0 and %d", c.count("recall"), c.count("acquire"), gdo.KeepStreak+1)
	}
	// The writer upgrades the grant it runs on. Its release keeps nothing:
	// the last fresh grant went to node 2.
	c.run(t, 1, 1, "set", nil)
	if a := c.count("adopt"); a != 1 {
		t.Fatalf("the upgrade sent %d adopts, want 1", a)
	}
	if dump := c.dir.DebugDump() + c.engines[1].DebugDump(); dump != "" {
		t.Fatalf("a grant was kept across another site's grant:\n%s", dump)
	}

	// Earned again in Read mode, upgraded again: now it stays, in Write mode.
	c.earn(t, 1, 1, "get")
	c.run(t, 1, 1, "set", nil)
	if a := c.count("adopt"); a != 2 {
		t.Fatalf("%d adopts, want 2", a)
	}
	if dump := c.dir.DebugDump(); !strings.Contains(dump, "sitehold{site=node(1) mode=W}") {
		t.Fatalf("after the upgraded root's release the directory holds:\n%s", dump)
	}
	c.run(t, 1, 1, "set", nil)
	c.run(t, 1, 1, "get", nil)
	if a := c.count("adopt") + c.count("acquire"); a != 2*gdo.KeepStreak+3 {
		t.Fatalf("roots on the Write grant sent requests: %d in all, want %d", a, 2*gdo.KeepStreak+3)
	}
	if got := c.counter(t, 2, 1); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

// TestDeadlockThroughAdoptedGrant: family F at node 1 runs on the retained
// grant of object 1 and wants object 2; family G at node 2 holds object 2
// and wants object 1. G's wait is behind the site hold, which waits for
// nobody — only the Adopt that the recall triggers puts F's name on it and
// lets the directory see the cycle. One of the two is aborted and retried;
// both commit.
func TestDeadlockThroughAdoptedGrant(t *testing.T) {
	var arrived atomic.Int32
	both := make(chan struct{})
	c := newRetainCluster(t, 2, func(*node.Ctx) {
		// The first two bodies — F's and G's first attempts — meet here,
		// each holding its first object; retries pass straight through.
		switch arrived.Add(1) {
		case 1:
			<-both
		case 2:
			close(both)
		}
	})
	c.earn(t, 1, 1, "set")
	done := make(chan error, 2)
	go func() {
		_, _, err := c.engines[1].Run(1, "then", []byte{2}) // F
		done <- err
	}()
	go func() {
		_, _, err := c.engines[2].Run(2, "then", []byte{1}) // G
		done <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("deadlock not broken; directory:\n%snode 1:\n%snode 2:\n%s",
				c.dir.DebugDump(), c.engines[1].DebugDump(), c.engines[2].DebugDump())
		}
	}
	c.net.wait()
	if c.count("adopt") == 0 {
		t.Error("the cycle was broken without an Adopt: the test did not go through the retained grant")
	}
	if o1, o2 := c.counter(t, 2, 1), c.counter(t, 2, 2); o1 != gdo.KeepStreak+2 || o2 != 2 {
		t.Fatalf("counters %d and %d, want %d and 2", o1, o2, gdo.KeepStreak+2)
	}
}

// TestLateRecallIsHarmless: a recall for a grant the site no longer has —
// it crossed the hand-back, or was sent twice by a promoted backup — costs
// at most one needless hand-back of the next grant kept.
func TestLateRecallIsHarmless(t *testing.T) {
	c := newRetainCluster(t, 1, nil)
	stale := &wire.Recall{Obj: 1, Family: ids.SiteFamily(1)}
	c.engines[1].Handle(2, stale)
	c.engines[1].Handle(2, stale)
	c.earn(t, 1, 1, "set")
	c.net.wait()
	if h := c.count("hand-back"); h != 1 {
		t.Fatalf("%d hand-backs after a stale recall, want 1", h)
	}
	if dump := c.dir.DebugDump() + c.engines[1].DebugDump(); dump != "" {
		t.Fatalf("after the needless hand-back something is still held:\n%s", dump)
	}
	c.earn(t, 1, 1, "set")
	c.run(t, 1, 1, "set", nil)
	if acquires, got := c.count("acquire"), c.counter(t, 2, 1); got != 2*gdo.KeepStreak+1 || acquires != 2*gdo.KeepStreak {
		t.Fatalf("counter %d after %d acquires, want %d after %d", got, acquires, 2*gdo.KeepStreak+1, 2*gdo.KeepStreak)
	}
}
