package node_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/pstore"
	"lotec/internal/schema"
	"lotec/internal/transport"
	"lotec/internal/txn"
	"lotec/internal/wire"
)

// threadNet is a genuinely concurrent transport for stress tests: unlike the
// one-proc-at-a-time SimNet, Call dispatches the remote handler inline on
// the calling goroutine and Send delivers on a fresh goroutine, so lock
// grants race against local acquisitions exactly as they do over TCP. Run
// it under -race.
type threadNet struct {
	mu       sync.Mutex
	handlers map[ids.NodeID]transport.Handler
	start    time.Time
	wg       sync.WaitGroup
	crashed  map[ids.NodeID]bool
	buffered []bufferedSend
	// tap, when set before traffic starts, sees every message on the
	// goroutine about to deliver it and may hold it there.
	tap func(from, to ids.NodeID, m wire.Msg)
}

type bufferedSend struct {
	from, to ids.NodeID
	m        wire.Msg
}

func newThreadNet() *threadNet {
	return &threadNet{
		handlers: make(map[ids.NodeID]transport.Handler),
		start:    time.Now(),
		crashed:  make(map[ids.NodeID]bool),
	}
}

func (n *threadNet) handler(id ids.NodeID) transport.Handler {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.handlers[id]
}

func (n *threadNet) setHandler(id ids.NodeID, h transport.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[id] = h
}

// crash freezes a node: Send deliveries to it are buffered (the process is
// paused, its socket buffers fill) until restart flushes them.
func (n *threadNet) crash(id ids.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// restart unfreezes a node and delivers every buffered message on its own
// goroutine — notifications (lock grants, aborts) completing futures whose
// waiters parked before the crash.
func (n *threadNet) restart(id ids.NodeID) {
	n.mu.Lock()
	delete(n.crashed, id)
	var flush []bufferedSend
	rest := n.buffered[:0]
	for _, b := range n.buffered {
		if b.to == id {
			flush = append(flush, b)
		} else {
			rest = append(rest, b)
		}
	}
	n.buffered = rest
	n.mu.Unlock()
	for _, b := range flush {
		h := n.handler(b.to)
		n.wg.Add(1)
		go func(b bufferedSend) {
			defer n.wg.Done()
			h(b.from, b.m)
		}(b)
	}
}

// bufferIfCrashed queues m when the destination is crashed; reports whether
// it did.
func (n *threadNet) bufferIfCrashed(from, to ids.NodeID, m wire.Msg) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.crashed[to] {
		return false
	}
	n.buffered = append(n.buffered, bufferedSend{from: from, to: to, m: m})
	return true
}

// wait blocks until every Send delivery and Go proc has finished.
func (n *threadNet) wait() { n.wg.Wait() }

type threadEnv struct {
	net  *threadNet
	self ids.NodeID
}

func (e *threadEnv) Self() ids.NodeID { return e.self }

func (e *threadEnv) Call(to ids.NodeID, m wire.Msg) (wire.Msg, error) {
	h := e.net.handler(to)
	if h == nil {
		return nil, transport.ErrNoHandler
	}
	if e.net.tap != nil {
		e.net.tap(e.self, to, m)
	}
	return h(e.self, m), nil
}

func (e *threadEnv) Send(to ids.NodeID, m wire.Msg) error {
	h := e.net.handler(to)
	if h == nil {
		return transport.ErrNoHandler
	}
	if e.net.bufferIfCrashed(e.self, to, m) {
		return nil
	}
	e.net.wg.Add(1)
	go func() {
		defer e.net.wg.Done()
		if e.net.tap != nil {
			e.net.tap(e.self, to, m)
		}
		h(e.self, m)
	}()
	return nil
}

func (e *threadEnv) NewFuture() transport.Future { return &chanFuture{ch: make(chan struct{})} }

func (e *threadEnv) Go(fn func()) {
	e.net.wg.Add(1)
	go func() {
		defer e.net.wg.Done()
		fn()
	}()
}

func (e *threadEnv) Sleep(d time.Duration) { time.Sleep(d) }
func (e *threadEnv) Now() time.Duration    { return time.Since(e.net.start) }

type chanFuture struct {
	once sync.Once
	ch   chan struct{}
	v    any
	err  error
}

func (f *chanFuture) Complete(v any, err error) {
	f.once.Do(func() {
		f.v, f.err = v, err
		close(f.ch)
	})
}

func (f *chanFuture) Wait() (any, error) {
	<-f.ch
	return f.v, f.err
}

// newThreadCluster builds `nodes` engines over net sharing one in-process
// GDO, with a single counter object (ID 1, class "C", methods set/get)
// homed at node 1.
func newThreadCluster(t *testing.T, net *threadNet, nodes int) map[ids.NodeID]*node.Engine {
	t.Helper()
	engines, _ := newThreadClusterOn(t, net, gdo.New(nodes), nodes, 1, nil)
	return engines
}

// newThreadClusterOn is newThreadCluster over a directory of the caller's
// making, with counter objects 1..objects homed at node 1. Besides set and
// get the class has "then", which increments the counter like set and then
// invokes set on the object its one-byte argument names; before that it
// calls hook (when non-nil) with the Ctx.
func newThreadClusterOn(t *testing.T, net *threadNet, dir *gdo.Directory, nodes, objects int, hook func(*node.Ctx)) (map[ids.NodeID]*node.Engine, *schema.Class) {
	t.Helper()
	schemas := schema.NewRegistry(64)
	methods := node.NewMethodTable()
	cls, err := schema.NewClassBuilder(1, "C").
		Attr("a", 8).
		Method(schema.MethodSpec{Name: "set", Writes: []string{"a"}}).
		Method(schema.MethodSpec{Name: "get", Reads: []string{"a"}}).
		Method(schema.MethodSpec{Name: "then", Writes: []string{"a"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := schemas.Add(cls); err != nil {
		t.Fatal(err)
	}
	if err := methods.Register(cls, "set", func(ctx *node.Ctx) error {
		b, err := ctx.ReadAt("a", 0, 1)
		if err != nil {
			return err
		}
		return ctx.Write("a", []byte{b[0] + 1, 0, 0, 0, 0, 0, 0, 0})
	}); err != nil {
		t.Fatal(err)
	}
	if err := methods.Register(cls, "get", func(ctx *node.Ctx) error {
		b, err := ctx.ReadAt("a", 0, 1)
		if err != nil {
			return err
		}
		ctx.SetResult(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := methods.Register(cls, "then", func(ctx *node.Ctx) error {
		b, err := ctx.ReadAt("a", 0, 1)
		if err != nil {
			return err
		}
		if err := ctx.Write("a", []byte{b[0] + 1, 0, 0, 0, 0, 0, 0, 0}); err != nil {
			return err
		}
		if hook != nil {
			hook(ctx)
		}
		_, err = ctx.Invoke(ids.ObjectID(ctx.Arg()[0]), "set", nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	engines := make(map[ids.NodeID]*node.Engine)
	for i := 1; i <= nodes; i++ {
		id := ids.NodeID(i)
		eng, err := node.New(node.Config{
			Env:      &threadEnv{net: net, self: id},
			Store:    pstore.NewStore(64),
			Schemas:  schemas,
			Methods:  methods,
			Manager:  txn.NewManagerAt(uint64(id) << 40),
			Protocol: core.LOTEC,
			HomeFn:   dir.HomeNode,
			Dir:      dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[id] = eng
		net.setHandler(id, eng.Handle)
	}
	for obj := ids.ObjectID(1); int(obj) <= objects; obj++ {
		if err := dir.Register(obj, 1, 1); err != nil {
			t.Fatal(err)
		}
		for _, eng := range engines {
			if err := eng.RegisterObject(obj, cls.ID, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return engines, cls
}

// TestConcurrentGrantAndAcquireStress hammers one object from several
// goroutines on two sites while GDO grants arrive on their own delivery
// goroutines — the satellite-2 audit target: every wake site
// (handleGrant's GrantEligible batch, preCommit's sibling hand-off, root
// release) must complete futures outside e.mu, and a refused pre-commit
// must still wake the granted siblings. Deadlocks here manifest as a hang
// (the txn never completes); races as -race reports.
func TestConcurrentGrantAndAcquireStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	const (
		nodes   = 3
		workers = 4
		iters   = 25
		obj     = ids.ObjectID(1)
	)
	net := newThreadNet()
	engines := newThreadCluster(t, net, nodes)

	errs := make(chan error, 2*workers*iters)
	var wg sync.WaitGroup
	for _, site := range []ids.NodeID{1, 2} {
		eng := engines[site]
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(site ids.NodeID, w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if _, _, err := eng.Run(obj, "set", nil); err != nil {
						errs <- fmt.Errorf("site %v worker %d iter %d: %w", site, w, i, err)
						return
					}
				}
			}(site, w)
		}
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run hung: a waiter was likely never woken")
	}
	net.wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	// Every increment serialized through the lock: the counter equals the
	// total number of committed runs.
	out, _, err := engines[1].Run(obj, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	net.wait()
	if want := byte(2 * workers * iters); len(out) != 1 || out[0] != want {
		t.Errorf("counter = %v, want %d (lost update ⇒ a wake-up raced a hand-off)", out, want)
	}
}

// TestFutureDoubleCompleteRace: the engine's wake-up paths can race a lock
// grant against a deadlock abort for the same parked future. The Future
// contract says later Completes are ignored; under -race, concurrent
// Completes and Waits must be clean, every Wait must observe the same
// single outcome, and repeated Waits must agree.
func TestFutureDoubleCompleteRace(t *testing.T) {
	for iter := 0; iter < 500; iter++ {
		f := &chanFuture{ch: make(chan struct{})}
		const waiters, completers = 3, 4
		vals := make([]any, waiters)
		errs := make([]error, waiters)
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				vals[i], errs[i] = f.Wait()
			}(i)
		}
		abort := fmt.Errorf("deadlock victim")
		for i := 0; i < completers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i%2 == 0 {
					f.Complete(i, nil) // the grant
				} else {
					f.Complete(nil, abort) // the racing abort
				}
			}(i)
		}
		wg.Wait()
		for i := 1; i < waiters; i++ {
			if vals[i] != vals[0] || errs[i] != errs[0] {
				t.Fatalf("iter %d: waiters observed different outcomes: (%v,%v) vs (%v,%v)",
					iter, vals[i], errs[i], vals[0], errs[0])
			}
		}
		// A second Wait after completion returns the settled outcome.
		v2, e2 := f.Wait()
		if v2 != vals[0] || e2 != errs[0] {
			t.Fatalf("iter %d: re-Wait changed the outcome", iter)
		}
		if vals[0] == nil && errs[0] == nil {
			t.Fatalf("iter %d: future settled with neither value nor error", iter)
		}
	}
}

// TestCrashDuringGrantSchedule: node 2 repeatedly freezes while lock grants
// are in flight to it; the grants are delivered when it restarts, completing
// futures whose waiters parked before (or during) the crash window. Exercises
// complete-after-crash under -race: late grant deliveries race against new
// acquisitions from the restarted node, and no wake-up may be lost.
func TestCrashDuringGrantSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped in -short")
	}
	const (
		nodes   = 3
		workers = 3
		iters   = 15
		obj     = ids.ObjectID(1)
	)
	net := newThreadNet()
	engines := newThreadCluster(t, net, nodes)

	errs := make(chan error, 2*workers*iters)
	var wg sync.WaitGroup
	for _, site := range []ids.NodeID{1, 2} {
		eng := engines[site]
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(site ids.NodeID, w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if _, _, err := eng.Run(obj, "set", nil); err != nil {
						errs <- fmt.Errorf("site %v worker %d iter %d: %w", site, w, i, err)
						return
					}
				}
			}(site, w)
		}
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()

	// The crasher: freeze node 2 in short bursts until the workers finish,
	// always ending with a restart so every buffered grant is delivered.
	crasherDone := make(chan struct{})
	go func() {
		defer close(crasherDone)
		for {
			net.crash(2)
			time.Sleep(2 * time.Millisecond)
			net.restart(2)
			select {
			case <-workersDone:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	select {
	case <-workersDone:
	case <-time.After(60 * time.Second):
		t.Fatal("crash schedule hung: a buffered grant was likely lost")
	}
	<-crasherDone
	net.wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	out, _, err := engines[3].Run(obj, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	net.wait()
	if want := byte(2 * workers * iters); len(out) != 1 || out[0] != want {
		t.Errorf("counter = %v, want %d (a grant delivered after restart was lost)", out, want)
	}
}
