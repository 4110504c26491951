package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/pstore"
	"lotec/internal/schema"
	"lotec/internal/server"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// The TCP entries: what the runtime's frames and allocations cost, counted
// on in-process deployments over loopback.

// freeAddrs reserves n distinct loopback addresses by binding and
// immediately releasing them (the servers re-bind moments later).
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs, nil
}

// loopback is an in-process TCP deployment: one GDO and its nodes on
// loopback ports.
type loopback struct {
	nodes   []*server.NodeServer
	closers []func() error
}

// startLoopback starts a GDO and n nodes configured as cfg, with Topology
// and Self filled in. cfg.Rec, when set, records the GDO's traffic as well
// as every node's. Every node knows classes and runs body for each of
// their methods.
func startLoopback(n int, cfg server.NodeConfig, classes []*schema.Class, body node.MethodFunc) (*loopback, error) {
	addrs, err := freeAddrs(n + 1)
	if err != nil {
		return nil, err
	}
	cfg.Topology = server.Topology{NodeAddrs: addrs[:n], GDOAddr: addrs[n]}
	l := &loopback{}
	gdo := server.NewGDOServer(cfg.Topology)
	gdo.SetRecorder(cfg.Rec)
	if err := gdo.Start(); err != nil {
		return nil, fmt.Errorf("start GDO: %w", err)
	}
	l.closers = append(l.closers, gdo.Close)
	for i := 1; i <= n; i++ {
		cfg.Self = ids.NodeID(i)
		if err := l.startNode(cfg, classes, body); err != nil {
			l.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	return l, nil
}

func (l *loopback) startNode(cfg server.NodeConfig, classes []*schema.Class, body node.MethodFunc) error {
	n, err := server.NewNodeServer(cfg)
	if err != nil {
		return err
	}
	for _, cls := range classes {
		if err := n.AddClass(cls); err != nil {
			return err
		}
		for _, m := range cls.Methods() {
			if err := n.OnMethod(cls, m.Name, body); err != nil {
				return err
			}
		}
	}
	if err := n.Start(); err != nil {
		return err
	}
	l.closers = append(l.closers, n.Close)
	l.nodes = append(l.nodes, n)
	return nil
}

// create makes obj known at every node. The owner's call also registers it
// with the directory, one-way: nothing waits for the directory, and a root
// at another node that gets there first retries.
func (l *loopback) create(obj ids.ObjectID, class ids.ClassID, owner ids.NodeID) error {
	if err := l.nodes[owner-1].CreateObject(obj, class, owner); err != nil {
		return fmt.Errorf("create object %v: %w", obj, err)
	}
	for i, n := range l.nodes {
		if self := ids.NodeID(i + 1); self != owner {
			if err := n.CreateObject(obj, class, owner); err != nil {
				return fmt.Errorf("create object %v at node %v: %w", obj, self, err)
			}
		}
	}
	return nil
}

// close shuts the nodes down, then the GDO.
func (l *loopback) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		_ = l.closers[i]()
	}
}

// The rows that count frames on the TCP runtime: a root's, and an object
// creation's.
const (
	msgsPerRootOp       = "tcp/msgs-per-root"
	msgsPerRepeatRootOp = "tcp/msgs-per-repeat-root"
	msgsPerCreateOp     = "tcp/msgs-per-create"
)

// msgsPerRootRows commits flat roots at the owner of their object on the
// default TCP topology (one GDO, one shard) and counts the frames they put
// on the wire. No page moves, so the count is the directory protocol alone.
// A first root is an acquire pair and a release pair — the committing
// release is the commit point — 4 frames; the last release of a run of
// gdo.KeepStreak leaves the lock at the site, and a repeat root is its
// release pair, 2. The first row is the first thousand roots on a fresh
// object (gdo.KeepStreak = 5 first roots, then repeats: 2.010), the second
// the thousand after it. The third row is the frames per object created on
// a four-node deployment: the owner's one-way RegisterReq, 1. All three are
// counts; they carry no timing.
func msgsPerRootRows() ([]benchResult, error) {
	cls, err := schema.NewClassBuilder(1, "Counter").
		Attr("n", 8).
		Method(schema.MethodSpec{Name: "bump", Writes: []string{"n"}}).
		Build()
	if err != nil {
		return nil, err
	}
	rec := stats.NewRecorder()
	bump := func(ctx *node.Ctx) error { return ctx.Write("n", make([]byte, 8)) }
	l, err := startLoopback(1, server.NodeConfig{Protocol: core.LOTEC, Rec: rec}, []*schema.Class{cls}, bump)
	if err != nil {
		return nil, err
	}
	defer l.close()
	const obj = ids.ObjectID(1)
	if err := l.create(obj, cls.ID, 1); err != nil {
		return nil, err
	}

	const roots = 1000
	var rows []benchResult
	for _, op := range []string{msgsPerRootOp, msgsPerRepeatRootOp} {
		before := rec.MsgCount()
		for i := 0; i < roots; i++ {
			if _, err := l.nodes[0].Run(obj, "bump", nil); err != nil {
				return nil, fmt.Errorf("%s: root %d: %w", op, i, err)
			}
		}
		rows = append(rows, benchResult{Op: op, Ops: roots, MsgsPerOp: float64(rec.MsgCount()-before) / roots})
	}
	create, err := msgsPerCreateRow(cls, bump)
	if err != nil {
		return nil, err
	}
	return append(rows, create), nil
}

// msgsPerCreateRow creates objects owned in turn by each node of a
// four-node deployment, each at every node, and counts the frames that
// puts on the wire per object.
func msgsPerCreateRow(cls *schema.Class, body node.MethodFunc) (benchResult, error) {
	rec := stats.NewRecorder()
	const nodes, objs = 4, 64
	l, err := startLoopback(nodes, server.NodeConfig{Protocol: core.LOTEC, Rec: rec}, []*schema.Class{cls}, body)
	if err != nil {
		return benchResult{}, err
	}
	defer l.close()
	for obj := ids.ObjectID(1); obj <= objs; obj++ {
		if err := l.create(obj, cls.ID, ids.NodeID(obj%nodes)+1); err != nil {
			return benchResult{}, err
		}
	}
	return benchResult{Op: msgsPerCreateOp, Ops: objs, MsgsPerOp: float64(rec.MsgCount()) / objs}, nil
}

const (
	writesPerFrameOp = "tcp/writes-per-frame"
	dataRootOp       = "tcp/alloc-bytes-per-data-root"
)

// maxWritesPerFrame is the gate on the tcp/writes-per-frame row. One write
// per frame, 1.0, is what a writer that combines nothing measures; with
// eight callers on one connection the requests that meet share a write and
// so do the replies to requests that arrived together (measured 0.4–0.6 on
// two cores). The figure depends on how the callers interleave, so it is
// held under this ceiling, not to the committed value.
const maxWritesPerFrame = 0.95

// writesPerFrameRows runs eight concurrent callers over one connection
// pair — the tcp-call row's echo peer — and divides the writes both
// endpoints issued by the frames they sent. A count; it carries no timing.
func writesPerFrameRows() ([]benchResult, error) {
	a, b, stop, err := echoPair()
	if err != nil {
		return nil, err
	}
	defer stop()
	const (
		callers = 8
		calls   = 5000
	)
	if _, err := a.Call(2, &wire.ReleaseReq{Family: 9, Site: 1}); err != nil { // dial once, not eight times
		return nil, err
	}
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &wire.ReleaseReq{Family: 9, Site: 1, Commit: true}
			for i := 0; i < calls; i++ {
				if _, err := a.Call(2, req); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	af, aw := a.WriteCounts()
	bf, bw := b.WriteCounts()
	return []benchResult{{Op: writesPerFrameOp, Ops: int(af + bf), WritesPerFrame: float64(aw+bw) / float64(af+bf)}}, nil
}

// dataRootRows runs a directory and two nodes with 4 KiB pages on loopback
// and one one-page object, and prices what a root that pulls a whole page
// from another node and rewrites it allocates, process-wide, in bytes and
// in allocations. Node 1 and node 2 take turns rewriting the whole page,
// so each root at node 2 fetches the page node 1 wrote last, shadows it
// and commits; only node 2's roots are measured. With every page buffer of
// the data path pooled the row sits under one page (about 3.3 KiB in 66
// allocations on loopback); a pool page missed on the way shows as 4 KiB.
func dataRootRows() ([]benchResult, error) {
	cls, err := schema.NewClassBuilder(1, "Sheet").
		Attr("page", pstore.DefaultPageSize).
		Method(schema.MethodSpec{Name: "fill", Writes: []string{"page"}}).
		Build()
	if err != nil {
		return nil, err
	}
	fill := func(ctx *node.Ctx) error { return ctx.Write("page", ctx.Arg()) }
	l, err := startLoopback(2, server.NodeConfig{Protocol: core.LOTEC}, []*schema.Class{cls}, fill)
	if err != nil {
		return nil, err
	}
	defer l.close()
	const obj = ids.ObjectID(1)
	if err := l.create(obj, cls.ID, 1); err != nil {
		return nil, err
	}

	const warmup, roots = 100, 2000
	page := make([]byte, pstore.DefaultPageSize)
	var before, after runtime.MemStats
	var bytes, allocs uint64
	for i := 0; i < warmup+roots; i++ {
		if _, err := l.nodes[0].Run(obj, "fill", page); err != nil {
			return nil, fmt.Errorf("root %d at node 1: %w", i, err)
		}
		runtime.ReadMemStats(&before)
		if _, err := l.nodes[1].Run(obj, "fill", page); err != nil {
			return nil, fmt.Errorf("root %d at node 2: %w", i, err)
		}
		runtime.ReadMemStats(&after)
		if i >= warmup {
			bytes += after.TotalAlloc - before.TotalAlloc
			allocs += after.Mallocs - before.Mallocs
		}
	}
	return []benchResult{{
		Op:              dataRootOp,
		Ops:             roots,
		AllocsPerOp:     float64(allocs) / roots,
		AllocBytesPerOp: float64(bytes) / roots,
	}}, nil
}
