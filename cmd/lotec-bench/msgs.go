package main

import (
	"fmt"
	"sync"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/schema"
	"lotec/internal/server"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// The two ledger rows that count a root's frames on the TCP runtime.
const (
	msgsPerRootOp       = "tcp/msgs-per-root"
	msgsPerRepeatRootOp = "tcp/msgs-per-repeat-root"
)

// msgsPerRootRows commits flat roots at the owner of their object on the
// default TCP topology (one GDO, one shard) and counts the frames they put
// on the wire. No page moves, so the count is the directory protocol alone.
// A first root is an acquire pair and a release pair — the committing
// release is the commit point — 4 frames; the last release of a run of
// gdo.KeepStreak leaves the lock at the site, and a repeat root is its
// release pair, 2. The first row is the first thousand roots on a fresh
// object (gdo.KeepStreak = 5 first roots, then repeats: 2.010), the second
// the thousand after it. Both are counts;
// they carry no timing.
func msgsPerRootRows() ([]benchResult, error) {
	addrs, err := calibFreeAddrs(2)
	if err != nil {
		return nil, err
	}
	topo := server.Topology{NodeAddrs: addrs[:1], GDOAddr: addrs[1]}
	rec := stats.NewRecorder()
	gdo := server.NewGDOServer(topo)
	gdo.SetRecorder(rec)
	if err := gdo.Start(); err != nil {
		return nil, fmt.Errorf("start GDO: %w", err)
	}
	defer gdo.Close()
	n, err := server.NewNodeServer(server.NodeConfig{Topology: topo, Self: 1, Protocol: core.LOTEC, Rec: rec})
	if err != nil {
		return nil, err
	}
	cls, err := schema.NewClassBuilder(1, "Counter").
		Attr("n", 8).
		Method(schema.MethodSpec{Name: "bump", Writes: []string{"n"}}).
		Build()
	if err != nil {
		return nil, err
	}
	if err := n.AddClass(cls); err != nil {
		return nil, err
	}
	if err := n.OnMethod(cls, "bump", func(ctx *node.Ctx) error { return ctx.Write("n", make([]byte, 8)) }); err != nil {
		return nil, err
	}
	if err := n.Start(); err != nil {
		return nil, fmt.Errorf("start node: %w", err)
	}
	defer n.Close()
	const obj = ids.ObjectID(1)
	if err := n.CreateObject(obj, cls.ID, 1); err != nil {
		return nil, err
	}

	const roots = 1000
	var rows []benchResult
	for _, op := range []string{msgsPerRootOp, msgsPerRepeatRootOp} {
		before := rec.MsgCount()
		for i := 0; i < roots; i++ {
			if _, err := n.Run(obj, "bump", nil); err != nil {
				return nil, fmt.Errorf("%s: root %d: %w", op, i, err)
			}
		}
		rows = append(rows, benchResult{Op: op, Ops: roots, MsgsPerOp: float64(rec.MsgCount()-before) / roots})
	}
	return rows, nil
}

// checkMsgsPerRoot is the smoke gate over those rows: a frame count is a
// property of the protocol, not of the machine, so each must equal the
// committed one exactly.
func checkMsgsPerRoot(path string) error {
	doc, err := readBenchDoc(path)
	if err != nil {
		return err
	}
	committed := map[string]float64{}
	for _, base := range doc.Results {
		if base.Op == msgsPerRootOp || base.Op == msgsPerRepeatRootOp {
			committed[base.Op] = base.MsgsPerOp
		}
	}
	if len(committed) == 0 {
		fmt.Printf("smoke: %s has no %s row; skipping\n", path, msgsPerRootOp)
		return nil
	}
	rows, err := msgsPerRootRows()
	if err != nil {
		return err
	}
	for _, got := range rows {
		want, ok := committed[got.Op]
		if !ok {
			return fmt.Errorf("%s: no committed row in %s; regenerate it (make bench)", got.Op, path)
		}
		if got.MsgsPerOp != want {
			return fmt.Errorf("%s: flat roots at their owner send %v frames each, committed %v", got.Op, got.MsgsPerOp, want)
		}
		fmt.Printf("smoke ok: %s %v frames (committed %v)\n", got.Op, got.MsgsPerOp, want)
	}
	return nil
}

// writesPerFrameOp names the ledger row that counts how many write calls
// the connection writer spends per frame when callers meet on a connection.
const writesPerFrameOp = "tcp/writes-per-frame"

// maxWritesPerFrame is the smoke gate on that row. One write per frame, 1.0,
// is what a writer that combines nothing measures; with eight callers on one
// connection the requests that meet share a write and so do the replies to
// requests that arrived together (measured 0.4–0.6 on two cores).
const maxWritesPerFrame = 0.95

// writesPerFrameRow runs eight concurrent callers over one connection pair —
// the tcp-call row's echo peer — and divides the writes both endpoints
// issued by the frames they sent. A count; it carries no timing.
func writesPerFrameRow() (benchResult, error) {
	a, b, stop, err := echoPair()
	if err != nil {
		return benchResult{}, err
	}
	defer stop()
	const (
		callers = 8
		calls   = 5000
	)
	if _, err := a.Call(2, &wire.ReleaseReq{Family: 9, Site: 1}); err != nil { // dial once, not eight times
		return benchResult{}, err
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
		return benchResult{}, err
	default:
	}
	af, aw := a.WriteCounts()
	bf, bw := b.WriteCounts()
	return benchResult{
		Op:             writesPerFrameOp,
		Ops:            int(af + bf),
		WritesPerFrame: float64(aw+bw) / float64(af+bf),
	}, nil
}

// checkWritesPerFrame is the smoke gate over that row. The figure depends
// on how the callers interleave, so it is held under a ceiling, not to the
// committed value.
func checkWritesPerFrame() error {
	got, err := writesPerFrameRow()
	if err != nil {
		return err
	}
	if got.WritesPerFrame > maxWritesPerFrame {
		return fmt.Errorf("%s: %.3f writes per frame over %d frames, limit %.2f", writesPerFrameOp, got.WritesPerFrame, got.Ops, maxWritesPerFrame)
	}
	fmt.Printf("smoke ok: %s %.3f over %d frames (limit %.2f)\n", writesPerFrameOp, got.WritesPerFrame, got.Ops, maxWritesPerFrame)
	return nil
}
