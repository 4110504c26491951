package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotec/internal/fault"
	"lotec/internal/ids"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// countingConn counts the Write calls that reach the socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// loopbackPair returns the two ends of one TCP connection.
func loopbackPair(t *testing.T) (dialed, accepted net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		got <- c
	}()
	if dialed, err = net.Dial("tcp", l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if accepted = <-got; accepted == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		_ = dialed.Close()
		_ = accepted.Close()
	})
	return dialed, accepted
}

// echoConn serves raw with a read loop that answers every CopySetReq with a
// CopySetResp naming the same object, and returns the serving connection.
func echoConn(raw net.Conn) *tcpConn {
	c := newTCPConn(raw)
	go func() {
		c.shut(c.readFrames(func(env wire.Envelope, m wire.Msg) {
			req, ok := m.(*wire.CopySetReq)
			if !ok {
				return
			}
			frame := wire.EncodeFrame(wire.Envelope{ReqID: env.ReqID | replyBit, From: 2, To: 1},
				&wire.CopySetResp{Sets: []wire.CopySet{{Obj: req.Objs[0]}}})
			_ = c.w.writeFrame(frame)
			wire.ReleaseFrame(frame)
		}))
	}()
	return c
}

// echoCall is one call on c: a CopySetReq naming obj, and the object its
// reply names.
func echoCall(c *tcpConn, id uint64, obj ids.ObjectID) (ids.ObjectID, error) {
	slot, err := c.calls.register(id)
	if err != nil {
		return 0, err
	}
	frame := wire.EncodeFrame(wire.Envelope{ReqID: id, From: 1, To: 2}, &wire.CopySetReq{Objs: []ids.ObjectID{obj}})
	err = c.w.writeFrame(frame)
	wire.ReleaseFrame(frame)
	if err != nil {
		c.calls.cancel(id, slot)
		return 0, err
	}
	m, err := c.calls.await(id, slot, 30*time.Second)
	if err != nil {
		return 0, err
	}
	return m.(*wire.CopySetResp).Sets[0].Obj, nil
}

// TestWriterCombinesConcurrentFrames: callers that meet on one connection
// share writes, and no frame is lost, reordered into another, or answered
// with someone else's reply. Run under -race.
func TestWriterCombinesConcurrentFrames(t *testing.T) {
	const workers = 8
	calls := 10000
	if testing.Short() {
		calls = 1000
	}
	dialed, accepted := loopbackPair(t)
	cw, sw := &countingConn{Conn: dialed}, &countingConn{Conn: accepted}
	server := echoConn(sw)
	client := newTCPConn(cw)
	go func() { client.shut(client.readFrames(nil)) }()

	var nextID atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				obj := ids.ObjectID(w*calls + i + 1)
				got, err := echoCall(client, nextID.Add(1), obj)
				if err != nil {
					t.Errorf("call %v: %v", obj, err)
					return
				}
				if got != obj {
					t.Errorf("call %v received the reply to call %v", obj, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for _, end := range []struct {
		name string
		c    *tcpConn
		raw  *countingConn
	}{{"requests", client, cw}, {"replies", server, sw}} {
		frames, writes := end.c.w.counts()
		if frames != uint64(workers*calls) {
			t.Errorf("%s: writer took %d frames, want %d", end.name, frames, workers*calls)
		}
		if got := uint64(end.raw.writes.Load()); got != writes {
			t.Errorf("%s: the socket saw %d writes, the writer counted %d", end.name, got, writes)
		}
		if writes >= frames {
			t.Errorf("%s: %d writes for %d frames: nothing was combined", end.name, writes, frames)
		}
		t.Logf("%s: %.3f writes per frame", end.name, float64(writes)/float64(frames))
	}
}

// pageBytes is the content of page p of obj in the bulk replies below.
func pageBytes(obj ids.ObjectID, p, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(int(obj)*31 + p*7 + i)
	}
	return b
}

// TestWriterKeepsFramesWholeUnderFaults: an endpoint answers pipelined
// batches of small and bulk requests while its injector delays and
// duplicates the replies, so frames enter the writer from the read loop
// (corked, small ones queueing) and from goroutines of their own, and bulk
// replies leave from their own buffers behind whatever is queued. The
// receiver decodes every frame of the stream: an interleaved or torn one
// would not decode, or would carry the wrong bytes.
func TestWriterKeepsFramesWholeUnderFaults(t *testing.T) {
	const (
		batches  = 200
		perBatch = 6 // alternately small and bulk
		pages    = 16
		pageSize = 1024
	)
	addrs := freeAddrs(t, 1)
	b := NewTCPNet(2, map[ids.NodeID]string{2: addrs[0]})
	b.SetHandler(func(_ ids.NodeID, m wire.Msg) wire.Msg {
		switch req := m.(type) {
		case *wire.CopySetReq:
			return &wire.CopySetResp{Sets: []wire.CopySet{{Obj: req.Objs[0]}}}
		case *wire.MultiFetchReq:
			obj := req.Objs[0].Obj
			payload := wire.ObjPayload{Obj: obj}
			for p := 0; p < pages; p++ {
				payload.Pages = append(payload.Pages, wire.PagePayload{Page: ids.PageNum(p), Version: 1, Data: pageBytes(obj, p, pageSize)})
			}
			return &wire.MultiFetchResp{Objs: []wire.ObjPayload{payload}}
		}
		return nil
	})
	b.InstallFaults(fault.NewInjector(fault.Plan{Seed: 7, Rules: []fault.Rule{
		{Op: fault.OpDuplicate, Prob: 0.3},
		{Op: fault.OpDelay, Prob: 0.3, Delay: time.Millisecond},
	}}), transport.RetryPolicy{})
	listen(t, b)
	defer b.Close()

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Request id asks about object id; even ids are bulk.
	received := make(chan error, 1)
	go func() {
		seen := make(map[uint64]bool)
		for len(seen) < batches*perBatch {
			buf, err := wire.ReadFrame(conn)
			if err != nil {
				received <- err
				return
			}
			env, m, err := wire.Decode(buf)
			wire.ReleaseFrame(buf)
			if err != nil {
				received <- err
				return
			}
			id := env.ReqID &^ replyBit
			switch m := m.(type) {
			case *wire.CopySetResp:
				if id%2 == 0 || m.Sets[0].Obj != ids.ObjectID(id) {
					received <- errors.New("a small reply answers the wrong request")
					return
				}
			case *wire.MultiFetchResp:
				if id%2 != 0 || m.Objs[0].Obj != ids.ObjectID(id) || len(m.Objs[0].Pages) != pages {
					received <- errors.New("a bulk reply answers the wrong request")
					return
				}
				for p, pg := range m.Objs[0].Pages {
					if !bytes.Equal(pg.Data, pageBytes(ids.ObjectID(id), p, pageSize)) {
						received <- errors.New("a bulk reply arrived with another frame's bytes in it")
						return
					}
				}
			default:
				received <- errors.New("unexpected message in the stream")
				return
			}
			seen[id] = true
		}
		received <- nil
	}()

	id := uint64(0)
	for i := 0; i < batches; i++ {
		var batch []byte
		for j := 0; j < perBatch; j++ {
			id++
			env := wire.Envelope{ReqID: id, From: 1, To: 2}
			var req wire.Msg = &wire.CopySetReq{Objs: []ids.ObjectID{ids.ObjectID(id)}}
			if id%2 == 0 {
				req = &wire.MultiFetchReq{Objs: []wire.ObjPages{{Obj: ids.ObjectID(id), Pages: []ids.PageNum{0}}}}
			}
			frame := wire.EncodeFrame(env, req)
			batch = append(batch, frame...)
			wire.ReleaseFrame(frame)
		}
		if _, err := conn.Write(batch); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-received:
		if err != nil {
			t.Fatalf("receiver: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("receiver did not see every reply")
	}
	frames, writes := b.WriteCounts()
	t.Logf("%d frames in %d writes", frames, writes)
}

// TestWriterBoundsItsQueueAndFailsAStalledPeer: the peer never reads. The
// first sender sits in the write, small frames queue behind it up to
// pendingCap and no further, the senders beyond that wait, and all of it —
// the waiting senders and the call pending on the connection — fails
// inside writeTimeout + deadlineRefresh, shortened here.
func TestWriterBoundsItsQueueAndFailsAStalledPeer(t *testing.T) {
	const (
		timeout   = 200 * time.Millisecond
		senders   = 400
		frameSize = 100
	)
	near, far := net.Pipe() // unbuffered: a write blocks until the peer reads
	defer far.Close()
	c := newTCPConn(near)
	c.w.timeout = timeout

	slot, err := c.calls.register(1)
	if err != nil {
		t.Fatal(err)
	}
	pending := make(chan error, 1)
	go func() {
		_, err := c.calls.await(1, slot, 30*time.Second)
		pending <- err
	}()

	frame := make([]byte, frameSize)
	binary.LittleEndian.PutUint32(frame, frameSize-wire.FrameHeadroom)
	start := time.Now()
	results := make(chan error, senders)
	for i := 0; i < senders; i++ {
		go func() { results <- c.w.writeFrame(frame) }()
	}

	// Wait for the queue to fill, then watch it hold.
	queued := func() int {
		c.w.mu.Lock()
		defer c.w.mu.Unlock()
		return len(c.w.pending)
	}
	for queued() < pendingCap-frameSize && time.Since(start) < timeout/2 {
		time.Sleep(time.Millisecond)
	}
	if n := queued(); n < pendingCap-frameSize || n > pendingCap {
		t.Errorf("%d bytes queued behind a stalled write, want the cap of %d", n, pendingCap)
	}
	if done := len(results); done >= senders-1 {
		t.Errorf("%d of %d senders returned with the peer stalled: nothing blocked at the cap", done, senders)
	}

	var failedSends int
	for i := 0; i < senders; i++ {
		if err := <-results; err != nil {
			failedSends++
		}
	}
	waited := time.Since(start)
	if failedSends == 0 {
		t.Error("no sender was told the connection failed")
	}
	if waited < timeout || waited > timeout+deadlineRefresh+500*time.Millisecond {
		t.Errorf("stalled write failed after %v, want between %v and %v", waited, timeout, timeout+deadlineRefresh)
	}
	select {
	case err := <-pending:
		if !errors.Is(err, ErrNoReply) || !errors.Is(err, transport.ErrUnreachable) {
			t.Errorf("pending call failed with %v, want ErrNoReply wrapping ErrUnreachable", err)
		}
	case <-time.After(time.Second):
		t.Error("the call pending on the stalled connection did not fail with the write")
	}
	if n := queued(); n != 0 {
		t.Errorf("%d bytes still queued on a failed connection", n)
	}
	if err := c.w.writeFrame(frame); err == nil {
		t.Error("write on a failed connection succeeded")
	}
}

// TestReplyCorking: the replies to requests that arrived together leave
// together, and a partial request in the read buffer holds nothing back.
func TestReplyCorking(t *testing.T) {
	request := func(id uint64) []byte {
		return wire.EncodeFrame(wire.Envelope{ReqID: id, From: 1, To: 2}, &wire.CopySetReq{Objs: []ids.ObjectID{ids.ObjectID(id)}})
	}
	readReply := func(t *testing.T, conn net.Conn, want uint64) {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("reply %d: %v", want, err)
		}
		env, _, err := wire.Decode(buf)
		if err != nil || env.ReqID != want|replyBit {
			t.Fatalf("reply %d: got request ID %x, %v", want, env.ReqID, err)
		}
	}

	t.Run("a pipelined batch is answered in one write", func(t *testing.T) {
		dialed, accepted := loopbackPair(t)
		sw := &countingConn{Conn: accepted}
		echoConn(sw)
		batch := append(append(request(1), request(2)...), request(3)...)
		if _, err := dialed.Write(batch); err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= 3; id++ {
			readReply(t, dialed, id)
		}
		if n := sw.writes.Load(); n != 1 {
			t.Errorf("3 replies to one batch took %d writes, want 1", n)
		}
	})

	t.Run("half a frame corks nothing", func(t *testing.T) {
		dialed, accepted := loopbackPair(t)
		echoConn(accepted)
		second := request(2)
		half := len(second) / 2
		if _, err := dialed.Write(append(request(1), second[:half]...)); err != nil {
			t.Fatal(err)
		}
		readReply(t, dialed, 1) // before the rest of request 2 exists
		if _, err := dialed.Write(second[half:]); err != nil {
			t.Fatal(err)
		}
		readReply(t, dialed, 2)
	})
}

// TestTCPNetCloseClosesAcceptedConnections: Close ends the connections the
// endpoint accepted, not only those it dialed — a client's pending Run fails
// at once and no read loop outlives the endpoint.
func TestTCPNetCloseClosesAcceptedConnections(t *testing.T) {
	before := runtime.NumGoroutine()
	addrs := freeAddrs(t, 1)
	n := NewTCPNet(1, map[ids.NodeID]string{1: addrs[0]})
	arrived := make(chan struct{})
	n.SetAsyncHandler(wire.TRunReq, func(ids.NodeID, wire.Msg, func(wire.Msg)) { close(arrived) }) // never answers
	listen(t, n)

	cl, err := Dial(n.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Run(1, "peek", nil)
		done <- err
	}()
	<-arrived
	closed := time.Now()
	_ = n.Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrUnreachable) {
			t.Errorf("run error = %v, want ErrUnreachable", err)
		}
		if waited := time.Since(closed); waited > time.Second {
			t.Errorf("run took %v to notice the closed endpoint", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run still pending 5 s after the endpoint closed")
	}
	_ = cl.Close()
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("%d goroutines after Close, %d before Listen", now, before)
	}
}
