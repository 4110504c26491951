// Package server runs the LOTEC engine over real TCP: a transport.Env
// implementation on sockets, a GDO directory server, a node (site) server
// that executes transactions, and a thin client. The §6 remark that "an
// actual implementation … is now underway" becomes this user-space runtime:
// identical protocol code to the simulation, different transport.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lotec/internal/fault"
	"lotec/internal/ids"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// replyBit marks an envelope's ReqID as a reply to the peer's request with
// the same ID, so both directions of a connection share one ID space.
const replyBit = uint64(1) << 63

// callTimeout bounds how long an RPC waits for its reply when no retry
// policy is installed.
const callTimeout = 30 * time.Second

// dialTimeout bounds connection establishment; a dead peer fails fast
// instead of consuming the whole call budget.
const dialTimeout = 5 * time.Second

// tcpRetryDefaults is the wall-clock retry policy installed by
// InstallFaults when fields are left zero.
var tcpRetryDefaults = transport.RetryPolicy{
	Attempts:    4,
	Timeout:     3 * time.Second,
	BaseBackoff: 50 * time.Millisecond,
	MaxBackoff:  time.Second,
}

// AsyncHandler processes messages whose replies are produced later (e.g.
// RunReq, which executes a whole transaction). The reply closure writes the
// response on the connection the request arrived on.
type AsyncHandler func(from ids.NodeID, m wire.Msg, reply func(wire.Msg))

// TCPNet is the sockets implementation of transport.Env. One TCPNet
// instance represents one process (a site or the GDO); peers are dialed
// lazily by node ID.
type TCPNet struct {
	self  ids.NodeID
	addrs map[ids.NodeID]string
	start time.Time

	handler transport.Handler
	async   map[wire.MsgType]AsyncHandler

	mu       sync.Mutex
	listener net.Listener            // guarded by mu
	conns    map[ids.NodeID]*tcpConn // guarded by mu; the connection calls to a peer use
	serving  map[*tcpConn]struct{}   // guarded by mu; every connection with a read loop, dialed or accepted
	closed   bool                    // guarded by mu

	reqID atomic.Uint64

	// Fault layer (optional, setup-time): inj judges outbound frames at
	// the conn boundary, retry governs Call retransmission, rec counts
	// faults and retries. All nil/zero by default — the historical paths.
	inj   *fault.Injector
	retry transport.RetryPolicy
	rec   *stats.Recorder
}

var _ transport.Env = (*TCPNet)(nil)

// readBufSize is each connection's read buffer. Control messages are tens
// of bytes, so one read(2) brings in a whole frame, prefix and body, and
// often the next few. It is kept well under a bulk frame on purpose: a body
// passes through the buffer only up to its size — bufio reads the rest
// straight into the frame — so a buffer as large as a 16-page reply (64 KiB
// was tried) copies all of it twice and measured 6 % off bulk throughput,
// where 4 KiB measured none (EXPERIMENTS.md).
const readBufSize = 4 << 10

// tcpConn is one established connection: its combining writer, the buffered
// reader its read loop owns, and the table of calls awaiting replies on it.
type tcpConn struct {
	c     net.Conn
	w     connWriter
	r     *bufio.Reader // read loop only
	calls callTable
}

func newTCPConn(c net.Conn) *tcpConn {
	tc := &tcpConn{c: c, r: bufio.NewReaderSize(c, readBufSize)}
	tc.w.init(c, tc.shut)
	return tc
}

// NewTCPNet creates the endpoint for node self. addrs maps every node ID in
// the deployment (including self and the GDO node) to host:port.
func NewTCPNet(self ids.NodeID, addrs map[ids.NodeID]string) *TCPNet {
	cp := make(map[ids.NodeID]string, len(addrs))
	for k, v := range addrs {
		cp[k] = v
	}
	return &TCPNet{
		self:    self,
		addrs:   cp,
		start:   time.Now(),
		async:   make(map[wire.MsgType]AsyncHandler),
		conns:   make(map[ids.NodeID]*tcpConn),
		serving: make(map[*tcpConn]struct{}),
	}
}

// SetHandler installs the synchronous message handler (must not block).
func (n *TCPNet) SetHandler(h transport.Handler) { n.handler = h }

// SetAsyncHandler routes one message type to an asynchronous handler.
func (n *TCPNet) SetAsyncHandler(t wire.MsgType, h AsyncHandler) { n.async[t] = h }

// SetRecorder attaches a stats recorder for fault/retry counters. Call
// during setup.
func (n *TCPNet) SetRecorder(rec *stats.Recorder) { n.rec = rec }

// InstallFaults attaches a fault injector and enables the retry layer:
// outbound frames pass through the injector, and idempotent calls are
// retransmitted with capped jittered exponential backoff on timeout.
// Zero policy fields fall back to tcpRetryDefaults. Call during setup.
func (n *TCPNet) InstallFaults(inj *fault.Injector, policy transport.RetryPolicy) {
	if policy.Seed == 0 {
		policy.Seed = inj.Seed()
	}
	n.retry = policy.WithDefaults(tcpRetryDefaults)
	// An inert injector (nil or an empty plan) is not installed: timeouts
	// and retries remain (they guard against real network loss) but the
	// per-frame fault judging is strictly pay-for-what-you-use.
	if inj.Active() {
		n.inj = inj
	}
}

// Listen starts accepting connections on the node's own address.
func (n *TCPNet) Listen() error {
	addr, ok := n.addrs[n.self]
	if !ok {
		return fmt.Errorf("server: no address configured for %v", n.self)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	n.mu.Lock()
	n.listener = l
	n.mu.Unlock()
	go n.acceptLoop(l)
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (n *TCPNet) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// Close shuts the endpoint down: the listener and every connection, dialed
// or accepted, so that no read loop outlives it. Calls awaiting replies fail
// with transport.ErrClosed.
func (n *TCPNet) Close() error {
	n.mu.Lock()
	n.closed = true
	l := n.listener
	serving := n.serving
	n.conns = map[ids.NodeID]*tcpConn{}
	n.serving = map[*tcpConn]struct{}{}
	n.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	for c := range serving {
		c.calls.fail(transport.ErrClosed)
		_ = c.c.Close()
	}
	return nil
}

// WriteCounts reports, over the endpoint's live connections, the frames it
// has sent and the write calls they took: frames that met on a busy
// connection, and the replies to a pipelined batch, share a write.
func (n *TCPNet) WriteCounts() (frames, writes uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for c := range n.serving {
		f, w := c.w.counts()
		frames, writes = frames+f, writes+w
	}
	return frames, writes
}

func (n *TCPNet) acceptLoop(l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		n.serve(newTCPConn(c))
	}
}

// serve starts an accepted connection's read loop, unless Close got there
// first: a connection accepted while the listener was closing is closed too.
func (n *TCPNet) serve(c *tcpConn) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = c.c.Close()
		return
	}
	n.serving[c] = struct{}{}
	n.mu.Unlock()
	go n.readLoop(c, ids.NoNode)
}

// conn returns (dialing if needed) the connection to a peer.
func (n *TCPNet) conn(to ids.NodeID) (*tcpConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if c, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return c, nil
	}
	addr, ok := n.addrs[to]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", transport.ErrUnknownNode, to)
	}
	raw, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("server: dial %v at %s: %w (%v)", to, addr, transport.ErrUnreachable, err)
	}
	c := newTCPConn(raw)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = raw.Close()
		return nil, transport.ErrClosed
	}
	if existing, ok := n.conns[to]; ok {
		n.mu.Unlock()
		_ = raw.Close()
		return existing, nil
	}
	n.conns[to] = c
	n.serving[c] = struct{}{}
	n.mu.Unlock()
	go n.readLoop(c, to)
	return c, nil
}

// readFrames decodes inbound frames until the connection fails and returns
// the read error: replies complete the calls awaiting them, every other
// message goes to onRequest (nil drops them).
//
// While another complete frame is already in the read buffer the connection
// is corked: whatever onRequest sends in answer waits for the answers to the
// frames behind it, and the replies to a pipelined batch of requests leave
// in one write. The cork comes off after the last buffered frame, before the
// loop can block in a read; a partial frame in the buffer corks nothing.
func (c *tcpConn) readFrames(onRequest func(wire.Envelope, wire.Msg)) error {
	corked := false
	for {
		buf, err := wire.ReadFrame(c.r)
		if err != nil {
			return err
		}
		more := c.frameBuffered()
		if more && !corked {
			c.w.cork()
			corked = true
		}
		// Decode in place: payload fields alias the pooled frame, which is
		// released at the bottom of the loop. Messages that outlive this
		// iteration (replies handed to waiting calls, requests handed to
		// async handlers) are retained — deep-copied — first.
		env, m, err := wire.DecodeView(buf)
		switch {
		case err != nil: // drop undecodable frames
		case env.ReqID&replyBit != 0:
			wire.Retain(m)
			c.calls.deliver(env.ReqID&^replyBit, m)
		case onRequest != nil:
			onRequest(env, m)
		}
		wire.ReleaseFrame(buf)
		if corked && !more {
			c.w.uncork()
			corked = false
		}
	}
}

// frameBuffered reports whether the read buffer already holds a whole
// further frame, length prefix and body.
func (c *tcpConn) frameBuffered() bool {
	n := c.r.Buffered()
	if n < wire.FrameHeadroom {
		return false
	}
	head, _ := c.r.Peek(wire.FrameHeadroom) // buffered, so it cannot fail
	return n-wire.FrameHeadroom >= int(binary.LittleEndian.Uint32(head))
}

// shut ends a connection whose read loop stopped on cause. Nothing more
// will arrive on it, so the calls still waiting fail now — retryably — and
// not at their timeouts.
func (c *tcpConn) shut(cause error) {
	c.calls.fail(fmt.Errorf("%w: %w (%v)", ErrNoReply, transport.ErrUnreachable, cause))
	_ = c.c.Close()
}

// readLoop serves one connection until it fails: replies complete pending
// calls, requests run through the handlers.
func (n *TCPNet) readLoop(c *tcpConn, peer ids.NodeID) {
	err := c.readFrames(func(env wire.Envelope, m wire.Msg) {
		if peer == ids.NoNode && env.From != ids.NoNode && int64(env.From) < clientIDBase {
			// Learn the peer's identity from its first frame so replies and
			// future sends reuse this connection. Client identities are not
			// learned: several clients share one synthetic ID and replies go
			// back on the arrival connection anyway.
			peer = env.From
			n.mu.Lock()
			if _, ok := n.conns[peer]; !ok {
				n.conns[peer] = c
			}
			n.mu.Unlock()
		}
		if _, isAsync := n.async[m.Type()]; isAsync {
			wire.Retain(m)
		}
		// Synchronous handlers consume the message before returning (the
		// transport contract; replies and page installs copy what they
		// keep), so the frame is safe to recycle once dispatch returns.
		n.dispatch(c, env, m)
	})
	// Out of the pool first, so a caller woken by the failure re-dials
	// instead of finding this connection again.
	n.mu.Lock()
	if peer != ids.NoNode && n.conns[peer] == c {
		delete(n.conns, peer)
	}
	delete(n.serving, c)
	n.mu.Unlock()
	c.shut(err)
}

// dispatch routes one inbound request.
func (n *TCPNet) dispatch(c *tcpConn, env wire.Envelope, m wire.Msg) {
	if h, ok := n.async[m.Type()]; ok {
		reqID, from := env.ReqID, env.From
		h(from, m, func(reply wire.Msg) {
			if reqID == 0 {
				return
			}
			_ = n.transmit(c, from, wire.Envelope{
				ReqID: reqID | replyBit,
				From:  n.self,
				To:    from,
			}, reply)
		})
		return
	}
	if n.handler == nil {
		return
	}
	reply := n.handler(env.From, m)
	if reply == nil || env.ReqID == 0 {
		return
	}
	_ = n.transmit(c, env.From, wire.Envelope{
		ReqID: env.ReqID | replyBit,
		From:  n.self,
		To:    env.From,
	}, reply)
}

// clientIDBase marks synthetic client identities (see package client).
const clientIDBase = 1 << 20

// Self implements transport.Env.
func (n *TCPNet) Self() ids.NodeID { return n.self }

// Now implements transport.Env.
func (n *TCPNet) Now() time.Duration { return time.Since(n.start) }

// Go implements transport.Env.
func (n *TCPNet) Go(fn func()) { go fn() }

// Sleep implements transport.Env.
func (n *TCPNet) Sleep(d time.Duration) { time.Sleep(d) }

// NewFuture implements transport.Env.
func (n *TCPNet) NewFuture() transport.Future {
	f := &waitFuture{}
	f.done.Add(1)
	return f
}

// transmit writes one frame through the fault injector (when installed):
// the frame may be dropped, delayed, or duplicated per the plan.
//
// The message is encoded into a pooled frame (prefix and body contiguous)
// that returns to the pool as soon as the connection's writer has taken it.
// Under an active injector the frame is never returned: delayed and
// duplicated sends hold it in goroutines with unbounded lifetimes, so it is
// left to the garbage collector (wire's ownership rules allow exactly that)
// — chaos pays for its own allocations, the clean path never does. Every
// send, faulted or not, goes through the connection's one writer, so a
// delayed or duplicated frame lands between others, never inside one.
func (n *TCPNet) transmit(c *tcpConn, to ids.NodeID, env wire.Envelope, m wire.Msg) error {
	if n.rec != nil {
		// Every frame that leaves this process — request or reply — is
		// classified and traced, mirroring SimNet's record points (local
		// self-delivery is unrecorded on both transports). This is what
		// makes measured TCP msgs/bytes comparable to simulated ones.
		r := wire.Classify(m)
		r.From, r.To = env.From, env.To
		n.rec.Record(r)
	}
	if n.inj == nil {
		frame := wire.EncodeFrame(env, m)
		err := c.w.writeFrame(frame)
		wire.ReleaseFrame(frame)
		return err
	}
	d := n.inj.Judge(n.Now(), n.self, to, m)
	if d.Drop {
		if n.rec != nil {
			n.rec.AddMsgDrop()
		}
		return nil
	}
	frame := wire.EncodeFrame(env, m) // not released: the sends below may outlive this call
	if d.Delay > 0 {
		if n.rec != nil {
			n.rec.AddMsgDelay()
		}
		delay := d.Delay
		go func() {
			time.Sleep(delay)
			_ = c.w.writeFrame(frame)
		}()
	} else if err := c.w.writeFrame(frame); err != nil {
		return err
	}
	for i := 0; i < d.Duplicates; i++ {
		if n.rec != nil {
			n.rec.AddMsgDup()
		}
		go func() { _ = c.w.writeFrame(frame) }()
	}
	return nil
}

// Send implements transport.Env (one-way, ReqID 0). Under an active fault
// injector, idempotent one-way messages are upgraded to acknowledged
// retried calls: a silently dropped Send (e.g. the ghost hand-back
// release) would otherwise orphan a directory lock forever.
func (n *TCPNet) Send(to ids.NodeID, m wire.Msg) error {
	if to == n.self {
		if n.handler != nil {
			go n.handler(n.self, m)
		}
		return nil
	}
	if n.inj != nil {
		if _, ok := m.(wire.Idempotent); ok {
			go func() { _, _ = n.Call(to, m) }()
			return nil
		}
	}
	c, err := n.conn(to)
	if err != nil {
		return err
	}
	return n.transmit(c, to, wire.Envelope{From: n.self, To: to}, m)
}

// Call implements transport.Env. With a retry policy installed (see
// InstallFaults), idempotent requests are retransmitted on timeout with
// capped jittered exponential backoff; everything else gets one attempt.
func (n *TCPNet) Call(to ids.NodeID, m wire.Msg) (wire.Msg, error) {
	if to == n.self {
		if n.handler == nil {
			return nil, transport.ErrNoHandler
		}
		reply := n.handler(n.self, m)
		if er, ok := reply.(*wire.ErrResp); ok {
			return nil, fmt.Errorf("server: local error: %s", er.Msg)
		}
		return reply, nil
	}
	timeout := callTimeout
	attempts := 1
	var bodyID uint64
	if n.inj != nil {
		timeout = n.retry.Timeout
		if idem, ok := m.(wire.Idempotent); ok {
			// Stamp the body-level request ID once: unlike the envelope's
			// per-transmission ReqID it stays stable across retries, so the
			// receiver's dedup cache can absorb duplicates.
			if idem.RequestID() == 0 {
				idem.SetRequestID(n.reqID.Add(1))
			}
			bodyID = idem.RequestID()
			if attempts = n.retry.Attempts; attempts < 1 {
				attempts = 1
			}
		}
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if n.rec != nil {
				n.rec.AddCallRetry()
			}
			time.Sleep(n.retry.Backoff(bodyID, attempt-1))
		}
		reply, err := n.callOnce(to, m, timeout)
		if err == nil {
			return reply, nil
		}
		lastErr = err
		if !errors.Is(err, transport.ErrTimeout) && !errors.Is(err, transport.ErrUnreachable) {
			return nil, err
		}
	}
	if attempts == 1 {
		return nil, lastErr
	}
	return nil, fmt.Errorf("%w: call to %v: %d attempt(s) failed: %w",
		transport.ErrUnreachable, to, attempts, lastErr)
}

// callOnce is one RPC transmission: register the call on the peer's
// connection, write the frame (through the fault injector when installed),
// and wait up to timeout for the reply.
func (n *TCPNet) callOnce(to ids.NodeID, m wire.Msg, timeout time.Duration) (wire.Msg, error) {
	c, err := n.conn(to)
	if err != nil {
		return nil, err
	}
	id := n.reqID.Add(1)
	slot, err := c.calls.register(id)
	if err != nil {
		// The connection died under us (or the endpoint closed); make sure
		// a retry re-dials rather than finding it again.
		n.dropConn(to, c)
		return nil, err
	}
	if err := n.transmit(c, to, wire.Envelope{ReqID: id, From: n.self, To: to}, m); err != nil {
		c.calls.cancel(id, slot)
		// Tear the connection down so a retry re-dials rather than reusing
		// the broken socket.
		n.dropConn(to, c)
		return nil, fmt.Errorf("server: write to %v: %w (%v)", to, transport.ErrUnreachable, err)
	}
	reply, err := c.calls.await(id, slot, timeout)
	if err == errCallTimeout {
		if n.rec != nil {
			n.rec.AddCallTimeout()
		}
		return nil, fmt.Errorf("server: call to %v: %w", to, transport.ErrTimeout)
	}
	if err != nil {
		return nil, err
	}
	if er, ok := reply.(*wire.ErrResp); ok {
		return nil, fmt.Errorf("server: remote error from %v: %s", to, er.Msg)
	}
	return reply, nil
}

// dropConn removes a connection from the pool after a write failure and
// closes it, which stops its read loop and fails the calls pending on it.
func (n *TCPNet) dropConn(to ids.NodeID, c *tcpConn) {
	n.mu.Lock()
	if n.conns[to] == c {
		delete(n.conns, to)
	}
	n.mu.Unlock()
	_ = c.c.Close()
}

// waitFuture is the blocking Future for real deployments: one allocation,
// no channel. The first Complete wins the flag, stores the outcome and
// opens the gate Wait blocks on.
type waitFuture struct {
	completed atomic.Bool
	done      sync.WaitGroup // holds one count until the future completes
	v         any
	err       error
}

// Complete implements transport.Future.
func (f *waitFuture) Complete(v any, err error) {
	if f.completed.CompareAndSwap(false, true) {
		f.v, f.err = v, err
		f.done.Done()
	}
}

// Wait implements transport.Future.
func (f *waitFuture) Wait() (any, error) {
	f.done.Wait()
	return f.v, f.err
}

// ErrNoReply reports a connection lost during an RPC. The error a call
// returns wraps it together with transport.ErrUnreachable.
var ErrNoReply = errors.New("server: connection closed before reply")
