package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/server"
	"lotec/internal/stats"
)

// cluster is the deployment under test: one directory server and numNodes
// node servers in this process, talking over loopback TCP, with the
// benchmark's classes, bodies and objects installed.
type cluster struct {
	sched *schedule
	gdo   *server.GDOServer
	nodes []*server.NodeServer
	// tr is nil on an untraced run.
	tr    *tracer
	audit *auditor
	// writeBufs recycles the bodies' write payloads so the benchmark's own
	// allocation stays out of the per-commit numbers.
	writeBufs sync.Pool
}

// freeAddrs reserves n distinct loopback addresses: it binds them all, then
// releases them for the servers to bind again a moment later.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// startCluster starts the deployment for a schedule. rec and tr are nil for
// an end-to-end run and set for the traced run.
func startCluster(s *schedule, rec *stats.Recorder, tr *tracer) (_ *cluster, err error) {
	addrs, err := freeAddrs(numNodes + 1)
	if err != nil {
		return nil, err
	}
	topo := server.Topology{NodeAddrs: addrs[:numNodes], GDOAddr: addrs[numNodes]}
	c := &cluster{sched: s, tr: tr, audit: newAuditor(s)}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	c.writeBufs.New = func() any {
		b := make([]byte, s.spec.writeBytes)
		for i := range b {
			b[i] = 0xA5
		}
		return &b
	}

	c.gdo = server.NewGDOServer(topo)
	if rec != nil {
		c.gdo.SetRecorder(rec)
	}
	if err := c.gdo.Start(); err != nil {
		return nil, fmt.Errorf("start GDO: %w", err)
	}
	for i := 0; i < numNodes; i++ {
		n, err := server.NewNodeServer(server.NodeConfig{
			Topology: topo,
			Self:     ids.NodeID(i + 1),
			Protocol: core.LOTEC,
			PageSize: pageSize,
			Rec:      rec,
		})
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i+1, err)
		}
		c.nodes = append(c.nodes, n)
		for size := s.spec.minPages; size <= s.spec.maxPages; size++ {
			cls := s.classes[ids.ClassID(size)]
			if err := n.AddClass(cls); err != nil {
				return nil, err
			}
			for _, m := range cls.Methods() {
				fn := c.body
				if m.Name == auditMethod {
					fn = c.auditBody
				}
				if err := n.OnMethod(cls, m.Name, fn); err != nil {
					return nil, err
				}
			}
		}
		if err := n.Start(); err != nil {
			return nil, fmt.Errorf("start node %d: %w", i+1, err)
		}
	}
	// Every node learns every object; the owner goes first because its call
	// also registers the object with the directory.
	for i, o := range s.objects {
		obj := ids.ObjectID(i + 1)
		if err := c.nodes[o.owner-1].CreateObject(obj, o.class, o.owner); err != nil {
			return nil, fmt.Errorf("create %v: %w", obj, err)
		}
		for j, n := range c.nodes {
			if ids.NodeID(j+1) == o.owner {
				continue
			}
			if err := n.CreateObject(obj, o.class, o.owner); err != nil {
				return nil, fmt.Errorf("create %v at node %d: %w", obj, j+1, err)
			}
		}
	}
	return c, nil
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	c.gdo.Close()
}

// runRoot submits root id of the run's sequence: it traces it when the run is
// traced, and tallies its increments when it commits.
func (c *cluster) runRoot(id uint64, r *root) error {
	rt := c.tr.newRoot(id, int32(r.node))
	_, err := c.nodes[r.node-1].Run(r.obj, r.method, callArg(id, r.blob))
	rt.close(0)
	if err == nil {
		c.audit.committed(r)
	}
	return err
}

// drive runs the cluster's workload to plan.
func (c *cluster) drive(plan runPlan) *runResult {
	return drive(c.sched.spec, c.sched.roots, c.runRoot, plan)
}

var errBadArg = errors.New("benchmark: malformed call argument")

// body is the benchmark-owned method body of every generated method: read 8
// bytes of each declared-read segment, increment the counter at the start of
// each declared-write segment and write writeBytes bytes there, then run the
// children in the order the generator put them in (ascending object order).
func (c *cluster) body(ctx *node.Ctx) error {
	arg := ctx.Arg()
	if len(arg) < 9 {
		return errBadArg
	}
	rootID := binary.LittleEndian.Uint64(arg)
	rt := c.tr.root(rootID)
	sp := rt.open(spanBody)
	err := c.runBody(ctx, rt, rootID, arg[8:])
	rt.close(sp)
	return err
}

func (c *cluster) runBody(ctx *node.Ctx, rt *rootTrace, rootID uint64, children []byte) error {
	m := ctx.Method()
	read := func(seg string) ([]byte, error) {
		sp := rt.open(spanRead)
		b, err := ctx.ReadAt(seg, 0, 8)
		rt.close(sp)
		return b, err
	}
	for _, a := range m.Reads {
		if _, err := read(c.sched.segNames[a]); err != nil {
			return err
		}
	}
	for _, a := range m.Writes {
		seg := c.sched.segNames[a]
		old, err := read(seg)
		if err != nil {
			return err
		}
		buf := c.writeBufs.Get().(*[]byte)
		binary.LittleEndian.PutUint64(*buf, binary.LittleEndian.Uint64(old)+1)
		sp := rt.open(spanWrite)
		err = ctx.WriteAt(seg, 0, *buf)
		rt.close(sp)
		c.writeBufs.Put(buf)
		if err != nil {
			return err
		}
	}
	n, p := int(children[0]), 1
	for ; n > 0; n-- {
		if len(children) < p+7 {
			return errBadArg
		}
		obj := ids.ObjectID(binary.LittleEndian.Uint32(children[p:]))
		method := children[p+4]
		end := p + 7 + int(binary.LittleEndian.Uint16(children[p+5:]))
		if int(method) >= len(methodNames) || len(children) < end {
			return errBadArg
		}
		arg := callArg(rootID, children[p+7:end])
		p = end
		sp := rt.open(spanInvoke)
		_, err := ctx.Invoke(obj, methodNames[method], arg)
		rt.close(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// auditBody returns the counter at the start of every segment.
func (c *cluster) auditBody(ctx *node.Ctx) error {
	m := ctx.Method()
	out := make([]byte, 0, 8*len(m.Reads))
	for _, a := range m.Reads {
		b, err := ctx.ReadAt(c.sched.segNames[a], 0, 8)
		if err != nil {
			return err
		}
		out = append(out, b...)
	}
	ctx.SetResult(out)
	return nil
}

// auditor tallies the increments of every committed root and checks them
// against the objects' counters once the cluster is quiet.
type auditor struct {
	sched *schedule
	// tally[slot] counts committed increments of one (object, segment).
	tally []atomic.Int64
	// lastNode[i] is the node that most recently committed a root touching
	// object i (0 if none), so the audit can read from another one.
	lastNode []atomic.Int32
}

func newAuditor(s *schedule) *auditor {
	return &auditor{
		sched:    s,
		tally:    make([]atomic.Int64, len(s.objects)*s.spec.maxPages),
		lastNode: make([]atomic.Int32, len(s.objects)),
	}
}

// committed records one committed root.
func (a *auditor) committed(r *root) {
	for _, slot := range r.incs {
		a.tally[slot].Add(1)
		a.lastNode[int(slot)/a.sched.spec.maxPages].Store(int32(r.node))
	}
}

// check runs audit on every object, from a node that did not write it last,
// and compares each segment's counter with the tally.
func (a *auditor) check(c *cluster) error {
	for i, o := range a.sched.objects {
		obj := ids.ObjectID(i + 1)
		at := int(a.lastNode[i].Load()) % numNodes // the node after the last writer
		out, err := c.nodes[at].Run(obj, auditMethod, nil)
		if err != nil {
			return fmt.Errorf("audit of object %v at node %d: %w", obj, at+1, err)
		}
		if len(out) != 8*o.pages {
			return fmt.Errorf("audit of object %v: %d result bytes, want %d", obj, len(out), 8*o.pages)
		}
		for seg := 0; seg < o.pages; seg++ {
			got := int64(binary.LittleEndian.Uint64(out[8*seg:]))
			if want := a.tally[a.sched.slot(i, seg)].Load(); got != want {
				return fmt.Errorf("audit of object %v segment %d: counter is %d, %d increments committed",
					obj, seg, got, want)
			}
		}
	}
	return nil
}
