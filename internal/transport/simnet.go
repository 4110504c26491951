package transport

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"lotec/internal/fault"
	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// SimNet is a deterministic discrete-event network simulator. All nodes
// share one virtual clock; at most one proc (transaction goroutine) runs at
// any instant, and events fire in strict (time, sequence) order, so a given
// workload produces byte-identical traces on every run.
//
// Construct with NewSimNet, attach handlers, start procs with the node
// Envs' Go, then Run until quiescent.
type SimNet struct {
	params netmodel.Params
	rec    *stats.Recorder // may be nil

	mu     sync.Mutex
	now    time.Duration // guarded by mu
	seq    uint64        // guarded by mu
	pq     eventQueue    // guarded by mu
	active int           // guarded by mu; procs started and not yet finished

	// handlers, asyncHandlers, and envs are populated during setup, before
	// Run, and are read-only afterwards; they need no lock by construction.
	handlers      map[ids.NodeID]Handler
	asyncHandlers map[ids.NodeID]AsyncHandler
	envs          map[ids.NodeID]*simEnv

	// yield carries the "current proc has blocked or finished" signal back
	// to the scheduler. Procs send; only the scheduler receives.
	yield chan struct{}

	// Fault layer, installed (before Run) with InstallFaults. inj nil
	// means no fault plan: Send and Call take exactly the historical
	// code paths, byte-for-byte.
	inj    *fault.Injector
	retry  RetryPolicy
	reqCtr uint64 // guarded by mu; stamps wire.Idempotent request IDs
}

// simRetryDefaults is the virtual-clock retry policy: timeouts price how
// long a lost message stalls its caller (the simulator detects the loss
// itself, so the deadline never fires spuriously on slow big replies),
// and the attempt budget is generous enough that any recoverable fault
// plan terminates while a permanently dead peer still surfaces
// ErrUnreachable instead of hanging the run.
var simRetryDefaults = RetryPolicy{
	Attempts:    25,
	Timeout:     2 * time.Millisecond,
	BaseBackoff: 100 * time.Microsecond,
	MaxBackoff:  2 * time.Millisecond,
}

// event is one scheduled occurrence.
type event struct {
	at   time.Duration
	seq  uint64
	fire func()
}

// eventQueue is a min-heap on (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// NewSimNet creates a simulator for nodes 1..n with the given network
// parameters. rec may be nil to skip tracing.
func NewSimNet(n int, params netmodel.Params, rec *stats.Recorder) *SimNet {
	s := &SimNet{
		params:        params,
		rec:           rec,
		handlers:      make(map[ids.NodeID]Handler, n),
		asyncHandlers: make(map[ids.NodeID]AsyncHandler, n),
		envs:          make(map[ids.NodeID]*simEnv, n),
		yield:         make(chan struct{}),
	}
	for i := 1; i <= n; i++ {
		id := ids.NodeID(i)
		s.envs[id] = &simEnv{net: s, self: id}
	}
	return s
}

// Env returns the Env of a node (1-based).
func (s *SimNet) Env(id ids.NodeID) Env { return s.envs[id] }

// InstallFaults attaches a fault injector and the simulator's retry
// policy. Call during setup, before Run. The backoff jitter is seeded with
// the plan seed.
//
// An inert injector (nil, or a plan with no rules, crashes, or
// partitions) is not installed at all: the fault layer is strictly
// pay-for-what-you-use, and with nothing to inject Send and Call must
// take exactly the historical code paths so the message trace stays
// byte-for-byte identical to a run with no plan.
func (s *SimNet) InstallFaults(inj *fault.Injector) {
	if !inj.Active() {
		return
	}
	s.inj = inj
	s.retry = simRetryDefaults
	s.retry.Seed = inj.Seed()
}

// nextReqID hands out idempotency keys for retried calls.
func (s *SimNet) nextReqID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqCtr++
	return s.reqCtr
}

// SetHandler installs the inbound-message handler for a node.
func (s *SimNet) SetHandler(id ids.NodeID, h Handler) { s.handlers[id] = h }

// SetAsyncHandler installs a deferred-reply handler for a node. A node has
// either a Handler or an AsyncHandler; when both are set the async one
// wins. Call during setup, before Run.
func (s *SimNet) SetAsyncHandler(id ids.NodeID, h AsyncHandler) { s.asyncHandlers[id] = h }

// hasHandler reports whether anything can receive a message at id.
func (s *SimNet) hasHandler(id ids.NodeID) bool {
	if _, ok := s.asyncHandlers[id]; ok {
		return true
	}
	_, ok := s.handlers[id]
	return ok
}

// dispatch invokes the destination's handler — sync or async — and calls
// done exactly once with a non-nil reply. For sync handlers done fires
// before dispatch returns; an async handler may defer it to any later
// event. Duplicate replies from a misbehaving async handler are dropped
// here so every call site can treat done as one-shot.
func (s *SimNet) dispatch(to, from ids.NodeID, m wire.Msg, done func(wire.Msg)) {
	if ah, ok := s.asyncHandlers[to]; ok {
		fired := false
		ah(from, m, func(reply wire.Msg) {
			if fired {
				return
			}
			fired = true
			if reply == nil {
				reply = &wire.ErrResp{Msg: "no reply"}
			}
			done(reply)
		})
		return
	}
	reply := s.handlers[to](from, m)
	if reply == nil {
		reply = &wire.ErrResp{Msg: "no reply"}
	}
	done(reply)
}

// discardReply is the done callback for one-way deliveries.
func discardReply(wire.Msg) {}

// Now returns the current virtual time.
func (s *SimNet) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// schedule enqueues fn to fire at the given virtual time (>= now).
func (s *SimNet) schedule(at time.Duration, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.pq, &event{at: at, seq: s.seq, fire: fn})
}

// record traces one message if a recorder is attached.
func (s *SimNet) record(from, to ids.NodeID, m wire.Msg) {
	if s.rec == nil {
		return
	}
	rec := wire.Classify(m)
	rec.From, rec.To = from, to
	s.rec.Record(rec)
}

// latency returns the simulated transmission time of m.
func (s *SimNet) latency(m wire.Msg) time.Duration {
	return s.params.MsgTime(wire.Size(m))
}

// Run drives the simulation until no events remain. It returns an error if
// procs are still blocked at quiescence (a protocol deadlock — the
// engine's deadlock detector should have prevented it).
func (s *SimNet) Run() error {
	for {
		s.mu.Lock()
		if s.pq.Len() == 0 {
			active := s.active
			s.mu.Unlock()
			if active > 0 {
				return fmt.Errorf("transport: simulation quiescent with %d proc(s) still blocked", active)
			}
			return nil
		}
		e := heap.Pop(&s.pq).(*event)
		s.now = e.at
		s.mu.Unlock()
		// Events run on the scheduler goroutine. An event that wakes a proc
		// blocks (inside fire) until that proc yields again, preserving the
		// one-runnable-at-a-time invariant.
		e.fire()
	}
}

// runProcUntilBlocked starts or resumes proc execution and waits for it to
// block or finish. Must be called from the scheduler goroutine only.
func (s *SimNet) waitYield() { <-s.yield }

// procYield signals the scheduler that the calling proc has blocked or
// finished. Must be called from proc goroutines only.
func (s *SimNet) procYield() { s.yield <- struct{}{} }

// simEnv is the per-node Env.
type simEnv struct {
	net  *SimNet
	self ids.NodeID
}

var _ Env = (*simEnv)(nil)
var _ GroupCaller = (*simEnv)(nil)

// Self implements Env.
func (e *simEnv) Self() ids.NodeID { return e.self }

// Now implements Env.
func (e *simEnv) Now() time.Duration { return e.net.Now() }

// Go implements Env: the proc starts at the current virtual time.
func (e *simEnv) Go(fn func()) {
	s := e.net
	s.mu.Lock()
	s.active++
	s.mu.Unlock()
	s.schedule(s.Now(), func() {
		go func() {
			fn()
			s.mu.Lock()
			s.active--
			s.mu.Unlock()
			s.procYield()
		}()
		s.waitYield()
	})
}

// Sleep implements Env.
func (e *simEnv) Sleep(d time.Duration) {
	f := e.NewFuture()
	e.net.schedule(e.net.Now()+d, func() { f.Complete(nil, nil) })
	_, _ = f.Wait()
}

// NewFuture implements Env.
func (e *simEnv) NewFuture() Future {
	return &simFuture{net: e.net, resume: make(chan futResult, 1)}
}

// Send implements Env: schedules delivery after the message's simulated
// latency and runs the destination handler at that time.
func (e *simEnv) Send(to ids.NodeID, m wire.Msg) error {
	s := e.net
	if !s.hasHandler(to) {
		return fmt.Errorf("%w: %v", ErrNoHandler, to)
	}
	if to == e.self {
		// Local delivery: no network cost, but still deferred through the
		// event queue so handler effects stay ordered.
		s.schedule(s.Now(), func() { s.dispatch(to, e.self, m, discardReply) })
		return nil
	}
	if s.inj != nil {
		return e.sendFaulted(to, m)
	}
	s.record(e.self, to, m)
	from := e.self
	s.schedule(s.Now()+s.latency(m), func() { s.dispatch(to, from, m, discardReply) })
	return nil
}

// sendFaulted is the one-way path under an active fault plan. Idempotent
// messages (the ghost-grant ReleaseReq hand-back) are upgraded to an
// acknowledged at-least-once Call on a fresh proc, so a drop cannot
// orphan a directory lock; other one-way traffic (Grant, Abort) is
// transmitted through the injector as-is — the recoverable plans never
// drop those kinds (see fault.Partition and the presets).
func (e *simEnv) sendFaulted(to ids.NodeID, m wire.Msg) error {
	s := e.net
	if _, ok := m.(wire.Idempotent); ok {
		e.Go(func() { _, _ = e.Call(to, m) })
		return nil
	}
	from := e.self
	d := s.inj.Judge(s.Now(), from, to, m)
	if d.Drop {
		s.record(from, to, m)
		if s.rec != nil {
			s.rec.AddMsgDrop()
		}
		return nil
	}
	for i := 0; i <= d.Duplicates; i++ {
		if i > 0 && s.rec != nil {
			s.rec.AddMsgDup()
		}
		if d.Delay > 0 && s.rec != nil {
			s.rec.AddMsgDelay()
		}
		s.record(from, to, m)
		s.schedule(s.Now()+s.latency(m)+d.Delay, func() { s.dispatch(to, from, m, discardReply) })
	}
	return nil
}

// Call implements Env. Calls to self run the handler inline with no cost
// (the locally cached / co-located GDO partition case of §4.1).
func (e *simEnv) Call(to ids.NodeID, m wire.Msg) (wire.Msg, error) {
	s := e.net
	if !s.hasHandler(to) {
		return nil, fmt.Errorf("%w: %v", ErrNoHandler, to)
	}
	if to == e.self {
		if _, ok := s.asyncHandlers[to]; !ok {
			return s.handlers[to](e.self, m), nil
		}
		// A self-call into an async handler still costs nothing on the
		// wire, but the reply may be deferred, so park on a future. The
		// handler runs inline on this proc; if it replies synchronously
		// the future completes before Wait and the proc never yields.
		f := e.NewFuture()
		s.dispatch(to, e.self, m, func(reply wire.Msg) { f.Complete(reply, nil) })
		v, err := f.Wait()
		if err != nil {
			return nil, err
		}
		return v.(wire.Msg), nil
	}
	if s.inj != nil {
		return e.callFaulted(to, m)
	}
	f := e.NewFuture()
	from := e.self
	s.record(from, to, m)
	s.schedule(s.Now()+s.latency(m), func() {
		s.dispatch(to, from, m, func(reply wire.Msg) {
			s.record(to, from, reply)
			s.schedule(s.Now()+s.latency(reply), func() {
				f.Complete(reply, nil)
			})
		})
	})
	v, err := f.Wait()
	if err != nil {
		return nil, err
	}
	reply := v.(wire.Msg)
	if er, ok := reply.(*wire.ErrResp); ok {
		return nil, fmt.Errorf("transport: remote error from %v: %s", to, er.Msg)
	}
	return reply, nil
}

// callFaulted is the RPC path under an active fault plan: each attempt's
// request and reply legs pass through the injector, a lost leg arms a
// per-attempt timeout at the caller, and idempotent requests are
// retransmitted (same body request ID, so the receiver's dedup cache
// replays instead of re-executing) under the capped jittered exponential
// backoff of the retry policy. Non-idempotent messages get exactly one
// attempt — retrying them could double-execute.
func (e *simEnv) callFaulted(to ids.NodeID, m wire.Msg) (wire.Msg, error) {
	s := e.net
	var reqID uint64
	im, idem := m.(wire.Idempotent)
	if idem {
		if im.RequestID() == 0 {
			im.SetRequestID(s.nextReqID())
		}
		reqID = im.RequestID()
	}
	attempts := s.retry.Attempts
	if !idem {
		attempts = 1
	}
	for attempt := 0; ; attempt++ {
		f := e.NewFuture()
		e.transmitCall(to, m, f, s.Now())
		v, err := f.Wait()
		if err == nil {
			reply := v.(wire.Msg)
			if er, ok := reply.(*wire.ErrResp); ok {
				return nil, fmt.Errorf("transport: remote error from %v: %s", to, er.Msg)
			}
			return reply, nil
		}
		// The attempt's loss timer fired.
		if s.rec != nil {
			s.rec.AddCallTimeout()
		}
		if attempts > 0 && attempt+1 >= attempts {
			return nil, fmt.Errorf("%w: call to %v: %d attempt(s) timed out: %w",
				ErrUnreachable, to, attempt+1, err)
		}
		if s.rec != nil {
			s.rec.AddCallRetry()
		}
		e.Sleep(s.retry.Backoff(reqID, attempt))
	}
}

// transmitCall puts one call attempt on the simulated wire. The simulator
// knows when it discards a leg, so instead of racing a fixed deadline
// against arbitrarily large (but intact) replies, the loss itself arms
// the caller's timeout: f completes with ErrTimeout at start+Timeout
// unless a surviving copy's reply wins first.
func (e *simEnv) transmitCall(to ids.NodeID, m wire.Msg, f Future, start time.Duration) {
	s := e.net
	from := e.self
	lose := func() {
		s.schedule(start+s.retry.Timeout, func() { f.Complete(nil, ErrTimeout) })
	}
	d := s.inj.Judge(s.Now(), from, to, m)
	if d.Drop {
		s.record(from, to, m)
		if s.rec != nil {
			s.rec.AddMsgDrop()
		}
		lose()
		return
	}
	for i := 0; i <= d.Duplicates; i++ {
		if i > 0 && s.rec != nil {
			s.rec.AddMsgDup()
		}
		if d.Delay > 0 && s.rec != nil {
			s.rec.AddMsgDelay()
		}
		s.record(from, to, m)
		s.schedule(s.Now()+s.latency(m)+d.Delay, func() {
			s.dispatch(to, from, m, func(reply wire.Msg) {
				rd := s.inj.Judge(s.Now(), to, from, reply)
				if rd.Drop {
					s.record(to, from, reply)
					if s.rec != nil {
						s.rec.AddMsgDrop()
					}
					lose()
					return
				}
				for j := 0; j <= rd.Duplicates; j++ {
					if j > 0 && s.rec != nil {
						s.rec.AddMsgDup()
					}
					if rd.Delay > 0 && s.rec != nil {
						s.rec.AddMsgDelay()
					}
					s.record(to, from, reply)
					s.schedule(s.Now()+s.latency(reply)+rd.Delay, func() {
						f.Complete(reply, nil)
					})
				}
			})
		})
	}
}

// CallGroup implements GroupCaller. The calls are issued sequentially on
// the virtual clock, so the recorded message trace is deterministic (truly
// overlapping the virtual round-trips would reorder lock races at the GDO
// and change message counts). The overlap is priced instead: every call is
// in flight at once off the simulator, so the group's elapsed time is its
// slowest call's measured round trip.
func (e *simEnv) CallGroup(calls []GroupCall) ([]GroupResult, time.Duration) {
	if len(calls) == 0 {
		return nil, 0
	}
	results := make([]GroupResult, len(calls))
	var span time.Duration
	for i, c := range calls {
		start := e.net.Now()
		results[i].Reply, results[i].Err = e.Call(c.To, c.Msg)
		span = max(span, e.net.Now()-start)
	}
	return results, span
}

// futResult carries a completion.
type futResult struct {
	v   any
	err error
}

// simFuture parks a proc until completed.
//
// If Complete fires before Wait, the result is stored and Wait returns it
// without yielding. If Wait parks first, Complete schedules a wake-up event
// so the hand-off always goes through the scheduler, preserving the
// one-runnable-at-a-time invariant no matter which context calls Complete.
type simFuture struct {
	net    *SimNet
	resume chan futResult

	mu      sync.Mutex
	done    bool      // guarded by mu
	waiting bool      // guarded by mu
	res     futResult // guarded by mu
}

// Complete implements Future.
func (f *simFuture) Complete(v any, err error) {
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		return
	}
	f.done = true
	res := futResult{v: v, err: err}
	f.res = res
	waiting := f.waiting
	f.mu.Unlock()
	if !waiting {
		return // Wait will pick the result up synchronously
	}
	// The wake-up event sends the captured result rather than re-reading
	// f.res outside the lock.
	s := f.net
	s.schedule(s.Now(), func() {
		f.resume <- res
		s.waitYield()
	})
}

// Wait implements Future. Must be called from a proc.
func (f *simFuture) Wait() (any, error) {
	f.mu.Lock()
	if f.done {
		r := f.res
		f.mu.Unlock()
		return r.v, r.err
	}
	f.waiting = true
	f.mu.Unlock()
	f.net.procYield()
	r := <-f.resume
	return r.v, r.err
}
