package server

import (
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/o2pl"
	"lotec/internal/schema"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// freeAddrs reserves n distinct loopback addresses.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	listeners := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	return addrs
}

func i64(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func dec64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// accountClass builds the test schema.
func accountClass(t *testing.T) *schema.Class {
	t.Helper()
	cls, err := schema.NewClassBuilder(1, "Account").
		Attr("balance", 8).
		Attr("audit", 100).
		Method(schema.MethodSpec{Name: "deposit", Writes: []string{"balance"}}).
		Method(schema.MethodSpec{Name: "peek", Reads: []string{"balance"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

// deposit adds its argument to the balance and returns the new balance.
func deposit(ctx *node.Ctx) error {
	cur, err := ctx.Read("balance")
	if err != nil {
		return err
	}
	next := dec64(cur) + dec64(ctx.Arg())
	if err := ctx.Write("balance", i64(next)); err != nil {
		return err
	}
	ctx.SetResult(i64(next))
	return nil
}

// peek returns the balance.
func peek(ctx *node.Ctx) error {
	cur, err := ctx.Read("balance")
	if err != nil {
		return err
	}
	ctx.SetResult(cur)
	return nil
}

func registerBodies(t *testing.T, s *NodeServer, cls *schema.Class) {
	t.Helper()
	if err := s.AddClass(cls); err != nil {
		t.Fatal(err)
	}
	if err := s.OnMethod(cls, "deposit", deposit); err != nil {
		t.Fatal(err)
	}
	if err := s.OnMethod(cls, "peek", peek); err != nil {
		t.Fatal(err)
	}
}

// startDeployment brings up a GDO and n nodes on loopback.
func startDeployment(t *testing.T, n int, protocol core.Protocol) (Topology, *GDOServer, []*NodeServer) {
	t.Helper()
	return deploy(t, deployment{nodes: n, protocol: protocol, retain: true})
}

// deployment shapes a loopback deployment of the account class with
// 256-byte pages.
type deployment struct {
	nodes    int
	protocol core.Protocol
	shards   int  // Topology.DirectoryShards
	retain   bool // the directory retains grants at sites, as NewGDOServer's does
	// rec, when not nil, records every frame the directory and the nodes
	// send.
	rec *stats.Recorder
}

// deploy brings up a GDO and d.nodes nodes on loopback.
func deploy(t *testing.T, d deployment) (Topology, *GDOServer, []*NodeServer) {
	t.Helper()
	addrs := freeAddrs(t, d.nodes+1)
	topo := Topology{NodeAddrs: addrs[:d.nodes], GDOAddr: addrs[d.nodes], DirectoryShards: d.shards}
	g := newGDOServer(topo, d.retain)
	if d.rec != nil {
		g.SetRecorder(d.rec)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	cls := accountClass(t)
	nodes := make([]*NodeServer, 0, d.nodes)
	for i := 1; i <= d.nodes; i++ {
		ns, err := NewNodeServer(NodeConfig{
			Topology: topo,
			Self:     ids.NodeID(i),
			Protocol: d.protocol,
			PageSize: 256,
			Rec:      d.rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		registerBodies(t, ns, cls)
		if err := ns.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ns.Close() })
		nodes = append(nodes, ns)
	}
	return topo, g, nodes
}

// createObject registers one object at every node (owner registers with the
// GDO).
func createObject(t *testing.T, nodes []*NodeServer, obj ids.ObjectID, owner ids.NodeID) {
	t.Helper()
	// Owner first: the GDO must know the object before others touch it.
	for _, s := range nodes {
		if s.net.Self() == owner {
			if err := s.CreateObject(obj, 1, owner); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range nodes {
		if s.net.Self() != owner {
			if err := s.CreateObject(obj, 1, owner); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTCPCrossNodeTransaction(t *testing.T) {
	for _, p := range []core.Protocol{core.LOTEC, core.COTEC} {
		t.Run(p.Name(), func(t *testing.T) {
			topo, _, nodes := startDeployment(t, 2, p)
			createObject(t, nodes, 1, 1)

			// Deposit at node 2 (remote from the owner), read at node 1.
			c2, err := Dial(topo.NodeAddrs[1], 2)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			out, err := c2.Run(1, "deposit", i64(25))
			if err != nil {
				t.Fatalf("deposit: %v", err)
			}
			if dec64(out) != 25 {
				t.Errorf("deposit result = %d", dec64(out))
			}
			c1, err := Dial(topo.NodeAddrs[0], 1)
			if err != nil {
				t.Fatal(err)
			}
			defer c1.Close()
			out, err = c1.Run(1, "peek", nil)
			if err != nil {
				t.Fatalf("peek: %v", err)
			}
			if dec64(out) != 25 {
				t.Errorf("cross-node peek = %d, want 25", dec64(out))
			}
		})
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	topo, _, nodes := startDeployment(t, 3, core.LOTEC)
	createObject(t, nodes, 1, 1)

	const perClient = 10
	var wg sync.WaitGroup
	errs := make(chan error, 3*perClient)
	for n := 0; n < 3; n++ {
		c, err := Dial(topo.NodeAddrs[n], ids.NodeID(n+1))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := c.Run(1, "deposit", i64(1)); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("client: %v", err)
	}
	c, err := Dial(topo.NodeAddrs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Run(1, "peek", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec64(out); got != 30 {
		t.Errorf("final balance = %d, want 30", got)
	}
}

func TestTCPErrorPropagation(t *testing.T) {
	topo, _, nodes := startDeployment(t, 1, core.LOTEC)
	createObject(t, nodes, 1, 1)
	c, err := Dial(topo.NodeAddrs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run(1, "nosuch", nil); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("unknown method error = %v", err)
	}
	if _, err := c.Run(99, "peek", nil); err == nil {
		t.Error("unknown object should fail")
	}
}

func TestTCPNetCallAndSend(t *testing.T) {
	addrs := freeAddrs(t, 2)
	m := map[ids.NodeID]string{1: addrs[0], 2: addrs[1]}
	a := NewTCPNet(1, m)
	b := NewTCPNet(2, m)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })

	oneWay := make(chan wire.Msg, 1)
	b.SetHandler(func(from ids.NodeID, msg wire.Msg) wire.Msg {
		switch msg.(type) {
		case *wire.CopySetReq:
			return &wire.CopySetResp{Sets: []wire.CopySet{{Obj: 4, Sites: []ids.NodeID{from, 2}}}}
		default:
			oneWay <- msg
			return nil
		}
	})
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	reply, err := a.Call(2, &wire.CopySetReq{Objs: []ids.ObjectID{4}})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	cs, ok := reply.(*wire.CopySetResp)
	if !ok || len(cs.Sets) != 1 || len(cs.Sets[0].Sites) != 2 || cs.Sets[0].Sites[0] != 1 {
		t.Fatalf("reply = %+v", reply)
	}
	if err := a.Send(2, &wire.PushResp{}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-oneWay:
		if _, ok := m.(*wire.PushResp); !ok {
			t.Errorf("one-way got %T", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("one-way message never arrived")
	}
	// Error replies become errors.
	b.SetHandler(func(ids.NodeID, wire.Msg) wire.Msg {
		return &wire.ErrResp{Msg: "nope"}
	})
	if _, err := a.Call(2, &wire.CopySetReq{}); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error reply: %v", err)
	}
	// Unknown peer.
	if _, err := a.Call(9, &wire.CopySetReq{}); err == nil {
		t.Error("unknown peer should fail")
	}
}

// TestGDOServerChecksOutsideInput is directory.TestHostChecksOutsideInput
// over loopback: a request addressed to the wrong shard is redirected and
// locks nothing, and a message the directory does not serve is answered
// with an error — over TCP, a message with no handler is never answered.
func TestGDOServerChecksOutsideInput(t *testing.T) {
	addrs := freeAddrs(t, 2)
	topo := Topology{NodeAddrs: addrs[:1], GDOAddr: addrs[1], DirectoryShards: 2}
	g := NewGDOServer(topo)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	site := NewTCPNet(1, topo.addrMap())
	t.Cleanup(func() { _ = site.Close() })
	call := func(m wire.Msg) (wire.Msg, error) {
		type result struct {
			reply wire.Msg
			err   error
		}
		done := make(chan result, 1)
		go func() {
			reply, err := site.Call(topo.GDONode(), m)
			done <- result{reply, err}
		}()
		select {
		case r := <-done:
			return r.reply, r.err
		case <-time.After(5 * time.Second):
			t.Fatalf("%T was never answered", m)
			return nil, nil
		}
	}

	const onShard1 = ids.ObjectID(11)
	if err := site.Send(topo.GDONode(), &wire.RegisterReq{Obj: onShard1, Class: 1, NumPages: 1, Owner: 1}); err != nil {
		t.Fatal(err)
	}
	epoch := topo.InitialMap().Epoch
	for _, req := range []wire.Msg{
		&wire.AcquireReq{Obj: onShard1, Ref: ids.TxRef{Tx: 1, Node: 1}, Family: 1, Age: 1, Site: 1, Mode: o2pl.Write, Shard: 0, Epoch: epoch},
		&wire.ReleaseReq{Family: 1, Site: 1, Shard: 0, Epoch: epoch, Rels: []gdo.ObjectRelease{{Obj: onShard1}}},
	} {
		if reply, err := call(req); err != nil {
			t.Errorf("%T to the wrong shard: %v", req, err)
		} else if _, ok := reply.(*wire.RouteResp); !ok {
			t.Errorf("%T to the wrong shard answered %T, want RouteResp", req, reply)
		}
	}
	if _, err := call(&wire.MultiFetchReq{}); err == nil || !strings.Contains(err.Error(), "cannot serve") {
		t.Errorf("a message the directory does not serve: %v, want its error reply", err)
	}
	if d := g.host.DebugDump(); d != "" {
		t.Errorf("misaddressed requests left locks:\n%s", d)
	}
}

func TestTopologyLayout(t *testing.T) {
	topo := Topology{NodeAddrs: []string{"a:1", "b:2"}, GDOAddr: "c:3"}
	if topo.GDONode() != 3 {
		t.Errorf("GDONode = %v", topo.GDONode())
	}
	m := topo.addrMap()
	if m[1] != "a:1" || m[2] != "b:2" || m[3] != "c:3" {
		t.Errorf("addrMap = %v", m)
	}
}

func TestNodeServerValidation(t *testing.T) {
	topo := Topology{NodeAddrs: []string{"127.0.0.1:1"}, GDOAddr: "127.0.0.1:2"}
	if _, err := NewNodeServer(NodeConfig{Topology: topo, Self: 5}); err == nil {
		t.Error("out-of-range node id should fail")
	}
	if _, err := NewNodeServer(NodeConfig{Topology: topo, Self: 0}); err == nil {
		t.Error("zero node id should fail")
	}
}

func TestTCPRCProtocolEndToEnd(t *testing.T) {
	topo, _, nodes := startDeployment(t, 2, core.RC)
	createObject(t, nodes, 1, 1)
	c1, err := Dial(topo.NodeAddrs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(topo.NodeAddrs[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 4; i++ {
		if _, err := c1.Run(1, "deposit", i64(2)); err != nil {
			t.Fatal(err)
		}
		if _, err := c2.Run(1, "deposit", i64(3)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := c1.Run(1, "peek", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec64(out); got != 20 {
		t.Errorf("balance = %d, want 20", got)
	}
}
