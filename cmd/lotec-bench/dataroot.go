package main

import (
	"fmt"
	"runtime"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/pstore"
	"lotec/internal/schema"
	"lotec/internal/server"
)

// dataRootOp names the ledger row that prices the data path's allocations:
// what a root that pulls a whole page from another node and rewrites it
// allocates, process-wide, in bytes and in allocations.
const dataRootOp = "tcp/alloc-bytes-per-data-root"

// dataRootRow runs a directory and two nodes with 4 KiB pages on loopback
// and one one-page object. Node 1 and node 2 take turns rewriting the whole
// page, so each root at node 2 fetches the page node 1 wrote last, shadows
// it and commits; only node 2's roots are measured. With every page buffer
// of the data path pooled the row sits under one page (about 3.3 KiB in 66
// allocations on loopback); a pool page missed on the way shows as 4 KiB.
func dataRootRow() (benchResult, error) {
	addrs, err := calibFreeAddrs(3)
	if err != nil {
		return benchResult{}, err
	}
	topo := server.Topology{NodeAddrs: addrs[:2], GDOAddr: addrs[2]}
	gdo := server.NewGDOServer(topo)
	if err := gdo.Start(); err != nil {
		return benchResult{}, fmt.Errorf("start GDO: %w", err)
	}
	defer gdo.Close()
	cls, err := schema.NewClassBuilder(1, "Sheet").
		Attr("page", pstore.DefaultPageSize).
		Method(schema.MethodSpec{Name: "fill", Writes: []string{"page"}}).
		Build()
	if err != nil {
		return benchResult{}, err
	}
	const obj = ids.ObjectID(1)
	var nodes []*server.NodeServer
	for self := ids.NodeID(1); self <= 2; self++ {
		n, err := server.NewNodeServer(server.NodeConfig{Topology: topo, Self: self, Protocol: core.LOTEC})
		if err != nil {
			return benchResult{}, err
		}
		if err := n.AddClass(cls); err != nil {
			return benchResult{}, err
		}
		if err := n.OnMethod(cls, "fill", func(ctx *node.Ctx) error { return ctx.Write("page", ctx.Arg()) }); err != nil {
			return benchResult{}, err
		}
		if err := n.Start(); err != nil {
			return benchResult{}, fmt.Errorf("start node %v: %w", self, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	for _, n := range nodes { // the owner registers with the directory first
		if err := n.CreateObject(obj, cls.ID, 1); err != nil {
			return benchResult{}, err
		}
	}

	const warmup, roots = 100, 2000
	page := make([]byte, pstore.DefaultPageSize)
	var before, after runtime.MemStats
	var bytes, allocs uint64
	for i := 0; i < warmup+roots; i++ {
		if _, err := nodes[0].Run(obj, "fill", page); err != nil {
			return benchResult{}, fmt.Errorf("%s: root %d at node 1: %w", dataRootOp, i, err)
		}
		runtime.ReadMemStats(&before)
		if _, err := nodes[1].Run(obj, "fill", page); err != nil {
			return benchResult{}, fmt.Errorf("%s: root %d at node 2: %w", dataRootOp, i, err)
		}
		runtime.ReadMemStats(&after)
		if i >= warmup {
			bytes += after.TotalAlloc - before.TotalAlloc
			allocs += after.Mallocs - before.Mallocs
		}
	}
	return benchResult{
		Op:              dataRootOp,
		Ops:             roots,
		AllocsPerOp:     float64(allocs) / roots,
		AllocBytesPerOp: float64(bytes) / roots,
	}, nil
}

// checkDataRoot is the smoke gate over that row: bytes and allocations per
// root get the allocation slack of the perf/ rows over the committed values.
func checkDataRoot(path string) error {
	doc, err := readBenchDoc(path)
	if err != nil {
		return err
	}
	var base *benchResult
	for i := range doc.Results {
		if doc.Results[i].Op == dataRootOp {
			base = &doc.Results[i]
		}
	}
	if base == nil {
		fmt.Printf("smoke: %s has no %s row; skipping\n", path, dataRootOp)
		return nil
	}
	got, err := dataRootRow()
	if err != nil {
		return err
	}
	if limit := base.AllocBytesPerOp * smokeAllocsSlack; got.AllocBytesPerOp > limit {
		return fmt.Errorf("%s: a data root allocates %.0f B, committed %.0f (limit %.0f)", dataRootOp, got.AllocBytesPerOp, base.AllocBytesPerOp, limit)
	}
	if limit := base.AllocsPerOp*smokeAllocsSlack + 0.5; got.AllocsPerOp > limit {
		return fmt.Errorf("%s: a data root allocates %.2f times, committed %.2f (limit %.2f)", dataRootOp, got.AllocsPerOp, base.AllocsPerOp, limit)
	}
	fmt.Printf("smoke ok: %s %.0f B in %.2f allocations (committed %.0f B, %.2f)\n", dataRootOp, got.AllocBytesPerOp, got.AllocsPerOp, base.AllocBytesPerOp, base.AllocsPerOp)
	return nil
}
