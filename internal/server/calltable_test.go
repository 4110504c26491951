package server

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotec/internal/ids"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// startPair listens on two connected endpoints, nodes 1 and 2.
func startPair(t *testing.T) (a, b *TCPNet) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	m := map[ids.NodeID]string{1: addrs[0], 2: addrs[1]}
	a, b = NewTCPNet(1, m), NewTCPNet(2, m)
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func listen(t *testing.T, nets ...*TCPNet) {
	t.Helper()
	for _, n := range nets {
		if err := n.Listen(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCallFailsFastWhenPeerDies: a call whose peer goes away mid-flight
// must not wait out callTimeout (30 s); it fails at once, retryably.
func TestCallFailsFastWhenPeerDies(t *testing.T) {
	a, b := startPair(t)
	arrived := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	b.SetHandler(func(ids.NodeID, wire.Msg) wire.Msg {
		close(arrived)
		<-release
		return nil
	})
	listen(t, a, b)

	done := make(chan error, 1)
	go func() {
		_, err := a.Call(2, &wire.CopySetReq{Objs: []ids.ObjectID{1}})
		done <- err
	}()
	<-arrived
	killed := time.Now()
	_ = b.Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrUnreachable) {
			t.Errorf("call error = %v, want ErrUnreachable", err)
		}
		if errors.Is(err, transport.ErrTimeout) {
			t.Errorf("call error = %v: must not read as a timeout", err)
		}
		if waited := time.Since(killed); waited > time.Second {
			t.Errorf("call took %v to notice the dead peer", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call still waiting 5 s after its peer died")
	}

	// The dead connection left the pool: the next call re-dials (and, the
	// listener being gone, fails on the dial rather than on a stale socket).
	if _, err := a.Call(2, &wire.CopySetReq{}); !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("call after peer death = %v, want ErrUnreachable", err)
	}
}

// TestClientRunFailsFastWhenNodeDies is the Client half: the node accepts
// the request and then drops the connection.
func TestClientRunFailsFastWhenNodeDies(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if buf, err := wire.ReadFrame(conn); err == nil {
			wire.ReleaseFrame(buf)
		}
		_ = conn.Close()
	}()

	c, err := Dial(l.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Run(1, "peek", nil)
	if !errors.Is(err, transport.ErrUnreachable) || !errors.Is(err, ErrNoReply) {
		t.Errorf("run error = %v, want ErrNoReply wrapping ErrUnreachable", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("run took %v to notice the dead node", waited)
	}
	if _, err := c.Run(1, "peek", nil); !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("run on a dead connection = %v, want ErrUnreachable", err)
	}
}

// TestRecycledSlotsNeverCrossReplies drives the hazard slot pooling
// introduces: calls that time out hand their slot to the next call while
// their own reply is still on its way. Every request names itself and the
// peer echoes the name, half of the time after the caller's 1 ms timeout;
// whatever a call receives must be its own echo. Run under -race.
func TestRecycledSlotsNeverCrossReplies(t *testing.T) {
	a, b := startPair(t)
	b.SetAsyncHandler(wire.TCopySetReq, func(_ ids.NodeID, m wire.Msg, reply func(wire.Msg)) {
		req := m.(*wire.CopySetReq)
		resp := &wire.CopySetResp{Sets: []wire.CopySet{{Obj: req.Objs[0]}}}
		if req.Objs[0]%2 == 0 {
			reply(resp)
			return
		}
		go func() {
			time.Sleep(2 * time.Millisecond)
			reply(resp)
		}()
	})
	listen(t, a, b)

	const (
		workers = 8
		calls   = 150
	)
	var name, replies, timeouts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				obj := ids.ObjectID(name.Add(1))
				m, err := a.callOnce(2, &wire.CopySetReq{Objs: []ids.ObjectID{obj}}, time.Millisecond)
				switch {
				case errors.Is(err, transport.ErrTimeout):
					timeouts.Add(1)
				case err != nil:
					t.Errorf("call %v: %v", obj, err)
					return
				default:
					replies.Add(1)
					if got := m.(*wire.CopySetResp).Sets[0].Obj; got != obj {
						t.Errorf("call %v received the reply to call %v", obj, got)
					}
				}
			}
		}()
	}
	wg.Wait()
	if replies.Load() == 0 || timeouts.Load() == 0 {
		t.Errorf("%d replies, %d timeouts: the test needs both to exercise slot reuse", replies.Load(), timeouts.Load())
	}
	// Late replies were dropped, not parked: nothing is left pending.
	a.mu.Lock()
	c := a.conns[2]
	a.mu.Unlock()
	c.calls.mu.Lock()
	defer c.calls.mu.Unlock()
	if n := len(c.calls.pending); n != 0 {
		t.Errorf("%d calls still pending after every caller returned", n)
	}
}

// TestCallTableStaleTick pins the defence against a timer tick that
// outlives the call it was armed for (Go ≤ 1.22 timers: Stop does not take
// back a tick already on its way): the next call on that slot must not read
// it as its own timeout.
func TestCallTableStaleTick(t *testing.T) {
	var tbl callTable
	s, err := tbl.register(1)
	if err != nil {
		t.Fatal(err)
	}
	// What a late tick leaves behind: the slot's timer fired for an earlier
	// call and nobody read the channel.
	s.timer.Reset(time.Nanosecond)
	time.Sleep(5 * time.Millisecond)
	go func() {
		time.Sleep(20 * time.Millisecond)
		tbl.deliver(1, &wire.CopySetResp{})
	}()
	if _, err := tbl.await(1, s, 5*time.Second); err != nil {
		t.Errorf("await = %v; a stale tick must not end the call", err)
	}
}
