//go:build !race

package server

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/wire"
)

// Resource-bound gates for the TCP runtime (DESIGN.md "Resource bounds").
// They measure the allocator and the live heap, which the race detector's
// instrumentation distorts, so the file is left out of race builds — the
// same reason make bench-allocs runs without -race.

// echoPair connects two endpoints; node 2 answers every call with one
// preallocated reply.
func echoPair(t *testing.T) *TCPNet {
	t.Helper()
	a, b := startPair(t)
	reply := &wire.ReleaseResp{}
	b.SetHandler(func(ids.NodeID, wire.Msg) wire.Msg { return reply })
	listen(t, a, b)
	return a
}

// tcpCallAllocs is what one loopback round trip allocates, process-wide: the
// request message decoded at the peer and the reply message decoded here.
// The call path itself — slot, timer, pending entry, frames — adds nothing;
// before slots were pooled the same call cost 7 (a timer with its channel,
// the reply channel and the pending-entry closure on top).
const tcpCallAllocs = 2

func TestAllocsTCPCall(t *testing.T) {
	a := echoPair(t)
	req := &wire.ReleaseReq{Family: 9, Site: 1, Commit: true}
	call := func() {
		if _, err := a.Call(2, req); err != nil {
			t.Fatal(err)
		}
	}
	call() // dial
	if n := testing.AllocsPerRun(2000, call); n > tcpCallAllocs {
		t.Errorf("TCPNet.Call echo allocates %.2f/op, want ≤ %d", n, tcpCallAllocs)
	}
}

// rootCommitAllocs is what one flat root allocates, process-wide, in a
// deployment of a directory and one node over loopback: a one-page
// read-modify-write ("deposit") run at the owner of its object, so the root
// is an acquire and a committing release. The parent commit measured 60.
// What is left is the root's own state (transaction, family and lock entry
// with their maps), the four messages with their slices on both sides, the
// shadow page and journal of the write, and the method body.
const rootCommitAllocs = 44

func TestAllocsRootCommit(t *testing.T) {
	_, _, nodes := startDeployment(t, 1, core.LOTEC)
	createObject(t, nodes, 1, 1)
	arg := i64(1)
	root := func() {
		if _, err := nodes[0].Run(1, "deposit", arg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		root() // dial, fill the pools
	}
	if n := testing.AllocsPerRun(2000, root); n > rootCommitAllocs {
		t.Errorf("a flat root allocates %.2f, want ≤ %d", n, rootCommitAllocs)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's sweep unpinned (pool victims)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSteadyStateHeapIsConstant is the growth gate: once warm, a deployment
// holds no memory and no goroutine per committed root. Roots alternate
// between two nodes on a handful of one-page objects, so every one of them
// crosses the directory (acquire, release) and most pull
// the page from the other node.
func TestSteadyStateHeapIsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 22 000 roots")
	}
	const (
		warmup  = 2000
		roots   = 20000
		objects = 8
		workers = 4
		// maxGrowth is per committed root. The parent commit grew by ~1 KiB.
		maxGrowth = 64
	)
	_, _, nodes := startDeployment(t, 2, core.LOTEC)
	for o := 1; o <= objects; o++ {
		createObject(t, nodes, ids.ObjectID(o), 1)
	}
	commit := func(n int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += workers {
					obj := ids.ObjectID(i%objects + 1)
					if _, err := nodes[i/objects%2].Run(obj, "deposit", i64(1)); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	commit(warmup)
	goroutines := runtime.NumGoroutine()
	before := liveHeap()
	commit(roots)
	after := liveHeap()

	if grown := int64(after) - int64(before); grown > maxGrowth*roots {
		t.Errorf("live heap grew %d B over %d roots: %.1f B per root, want < %d",
			grown, roots, float64(grown)/roots, maxGrowth)
	} else {
		t.Logf("live heap grew %.1f B per root", float64(grown)/roots)
	}
	// Worker goroutines have exited; give the scheduler a moment to reap
	// anything else that is on its way out.
	for i := 0; i < 50 && runtime.NumGoroutine() > goroutines; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		t.Errorf("%d goroutines after %d roots, %d before", now, roots, goroutines)
	}

	var total int64
	for o := 1; o <= objects; o++ {
		out, err := nodes[0].Run(ids.ObjectID(o), "peek", nil)
		if err != nil {
			t.Fatal(err)
		}
		total += dec64(out)
	}
	if total != warmup+roots {
		t.Errorf("balances sum to %d, want %d: the gate measured a run that lost commits", total, warmup+roots)
	}
}
