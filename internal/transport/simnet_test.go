package transport

import (
	"strings"
	"testing"
	"time"

	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

func testParams() netmodel.Params {
	return netmodel.Ethernet100.WithSoftwareCost(10 * time.Microsecond)
}

func TestCallRoundTrip(t *testing.T) {
	rec := stats.NewRecorder()
	net := NewSimNet(2, testParams(), rec)
	net.SetHandler(2, func(from ids.NodeID, m wire.Msg) wire.Msg {
		req, ok := m.(*wire.CopySetReq)
		if !ok {
			t.Errorf("handler got %T", m)
			return &wire.ErrResp{Msg: "bad type"}
		}
		if from != 1 || len(req.Objs) != 1 || req.Objs[0] != 7 {
			t.Errorf("from=%v objs=%v", from, req.Objs)
		}
		return &wire.CopySetResp{Sets: []wire.CopySet{{Obj: 7, Sites: []ids.NodeID{1, 2}}}}
	})
	var got *wire.CopySetResp
	env1 := net.Env(1)
	env1.Go(func() {
		reply, err := env1.Call(2, &wire.CopySetReq{Objs: []ids.ObjectID{7}})
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		got = reply.(*wire.CopySetResp)
	})
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got.Sets) != 1 || len(got.Sets[0].Sites) != 2 {
		t.Fatalf("reply = %+v", got)
	}
	// Two messages traced: request + reply.
	if rec.MsgCount() != 2 {
		t.Errorf("traced %d messages, want 2", rec.MsgCount())
	}
}

func TestCallToSelfInlineNoTrace(t *testing.T) {
	rec := stats.NewRecorder()
	net := NewSimNet(1, testParams(), rec)
	net.SetHandler(1, func(from ids.NodeID, m wire.Msg) wire.Msg {
		return &wire.PushResp{}
	})
	env := net.Env(1)
	var start, end time.Duration
	env.Go(func() {
		start = env.Now()
		if _, err := env.Call(1, &wire.CopySetReq{Objs: []ids.ObjectID{1}}); err != nil {
			t.Errorf("self call: %v", err)
		}
		end = env.Now()
	})
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.MsgCount() != 0 {
		t.Errorf("self-call traced %d messages", rec.MsgCount())
	}
	if start != end {
		t.Errorf("self-call advanced time %v → %v", start, end)
	}
}

func TestCallAdvancesVirtualClock(t *testing.T) {
	p := testParams()
	net := NewSimNet(2, p, nil)
	net.SetHandler(2, func(ids.NodeID, wire.Msg) wire.Msg { return &wire.PushResp{} })
	env := net.Env(1)
	var elapsed time.Duration
	env.Go(func() {
		req := &wire.CopySetReq{Objs: []ids.ObjectID{1}}
		t0 := env.Now()
		if _, err := env.Call(2, req); err != nil {
			t.Errorf("Call: %v", err)
		}
		elapsed = env.Now() - t0
		want := p.MsgTime(wire.Size(req)) + p.MsgTime(wire.Size(&wire.PushResp{}))
		if elapsed != want {
			t.Errorf("RTT = %v, want %v", elapsed, want)
		}
	})
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed == 0 {
		t.Fatal("proc never ran")
	}
}

func TestCallErrors(t *testing.T) {
	net := NewSimNet(2, testParams(), nil)
	net.SetHandler(2, func(ids.NodeID, wire.Msg) wire.Msg {
		return &wire.ErrResp{Msg: "denied"}
	})
	env := net.Env(1)
	env.Go(func() {
		if _, err := env.Call(3, &wire.CopySetReq{}); err == nil {
			t.Error("call to unknown node should fail")
		}
		_, err := env.Call(2, &wire.CopySetReq{})
		if err == nil || !strings.Contains(err.Error(), "denied") {
			t.Errorf("ErrResp not surfaced: %v", err)
		}
	})
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendOneWay(t *testing.T) {
	net := NewSimNet(2, testParams(), nil)
	var got []ids.ObjectID
	net.SetHandler(2, func(from ids.NodeID, m wire.Msg) wire.Msg {
		got = append(got, m.(*wire.CopySetReq).Objs[0])
		return nil
	})
	env := net.Env(1)
	env.Go(func() {
		for i := 0; i < 3; i++ {
			if err := env.Send(2, &wire.CopySetReq{Objs: []ids.ObjectID{ids.ObjectID(i)}}); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
		if err := env.Send(9, &wire.CopySetReq{}); err == nil {
			t.Error("send to unknown node should fail")
		}
	})
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("delivered = %v", got)
	}
}

func TestSleepOrdersProcs(t *testing.T) {
	net := NewSimNet(1, testParams(), nil)
	env := net.Env(1)
	var order []string
	env.Go(func() {
		env.Sleep(30 * time.Microsecond)
		order = append(order, "late")
	})
	env.Go(func() {
		env.Sleep(10 * time.Microsecond)
		order = append(order, "early")
	})
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Errorf("order = %v", order)
	}
	if got := net.Now(); got != 30*time.Microsecond {
		t.Errorf("final time = %v", got)
	}
}

func TestFutureCompleteBeforeWait(t *testing.T) {
	net := NewSimNet(1, testParams(), nil)
	env := net.Env(1)
	var got any
	env.Go(func() {
		f := env.NewFuture()
		f.Complete("early", nil)
		f.Complete("ignored", nil) // second complete dropped
		v, err := f.Wait()
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		got = v
	})
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "early" {
		t.Errorf("got %v", got)
	}
}

func TestFutureCrossProcHandoff(t *testing.T) {
	net := NewSimNet(1, testParams(), nil)
	env := net.Env(1)
	f := env.NewFuture()
	var got any
	env.Go(func() {
		v, err := f.Wait()
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		got = v
	})
	env.Go(func() {
		env.Sleep(5 * time.Microsecond)
		f.Complete(42, nil)
	})
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("got %v", got)
	}
}

func TestRunDetectsStuckProcs(t *testing.T) {
	net := NewSimNet(1, testParams(), nil)
	env := net.Env(1)
	env.Go(func() {
		f := env.NewFuture()
		_, _ = f.Wait() // never completed
	})
	err := net.Run()
	if err == nil || !strings.Contains(err.Error(), "blocked") {
		t.Fatalf("Run = %v, want stuck-proc error", err)
	}
}

func TestDeterministicTrace(t *testing.T) {
	run := func() []stats.MsgRecord {
		rec := stats.NewRecorder()
		net := NewSimNet(3, testParams(), rec)
		for n := ids.NodeID(1); n <= 3; n++ {
			net.SetHandler(n, func(from ids.NodeID, m wire.Msg) wire.Msg {
				return &wire.PushResp{}
			})
		}
		for n := ids.NodeID(1); n <= 3; n++ {
			env := net.Env(n)
			self := n
			env.Go(func() {
				for i := 0; i < 5; i++ {
					dst := ids.NodeID(int(self)%3 + 1)
					if _, err := env.Call(dst, &wire.CopySetReq{Objs: []ids.ObjectID{ids.ObjectID(i)}}); err != nil {
						t.Errorf("call: %v", err)
					}
					env.Sleep(time.Duration(self) * time.Microsecond)
				}
			})
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		return rec.Trace()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.From != rb.From || ra.To != rb.To || ra.Obj != rb.Obj ||
			ra.Kind != rb.Kind || ra.Bytes != rb.Bytes {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHandlerSendsDuringDelivery(t *testing.T) {
	// A handler forwarding a message (grant-style) must work.
	net := NewSimNet(3, testParams(), nil)
	var landed bool
	env2 := net.Env(2)
	net.SetHandler(2, func(from ids.NodeID, m wire.Msg) wire.Msg {
		if err := env2.Send(3, m); err != nil {
			t.Errorf("forward: %v", err)
		}
		return &wire.PushResp{}
	})
	net.SetHandler(3, func(from ids.NodeID, m wire.Msg) wire.Msg {
		landed = true
		return nil
	})
	env := net.Env(1)
	env.Go(func() {
		if _, err := env.Call(2, &wire.CopySetReq{Objs: []ids.ObjectID{1}}); err != nil {
			t.Errorf("call: %v", err)
		}
	})
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if !landed {
		t.Error("forwarded message never delivered")
	}
}
