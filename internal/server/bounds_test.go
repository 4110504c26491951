//go:build !race

package server

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/pstore"
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

// The two budgets are what one flat root allocates, process-wide, in a
// deployment of a directory and one node over loopback: a one-page
// read-modify-write ("deposit") run at the owner of its object.
//
// A repeat root runs on the grant the directory left at the site, so it is
// its committing release and nothing else. What is left is the root's own
// state (transaction, family and lock entry with their maps), the two
// messages with their slices on both sides, the shadow log of the write,
// and the method body. The page never left its owner, so its journal
// records nothing and reuses its open epoch: it was 37 while every seal
// kept an epoch and every write grew a fresh interval set.
//
// A first root — here, every root of a deployment whose directory has
// retention switched off — is an acquire and a committing release: the two
// more messages, the page map that comes with the grant and the directory's
// hold record. It was 60 before the connection writer combined frames.
const (
	repeatRootAllocs = 36
	firstRootAllocs  = 42
)

func TestAllocsRootCommit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		retain bool
		budget float64
	}{
		{"repeat root", true, repeatRootAllocs},
		{"first root", false, firstRootAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, nodes := deploy(t, deployment{nodes: 1, protocol: core.LOTEC, retain: tc.retain})
			createObject(t, nodes, 1, 1)
			arg := i64(1)
			root := func() {
				if _, err := nodes[0].Run(1, "deposit", arg); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				root() // dial, fill the pools, earn the keep
			}
			if n := testing.AllocsPerRun(2000, root); n > tc.budget {
				t.Errorf("a %s allocates %.2f, want ≤ %v", tc.name, n, tc.budget)
			}
		})
	}
}

// dataRootBytes is the most a data root may allocate, process-wide: under
// one page. The root runs at node 2 and rewrites the whole 4 KiB page node 1
// wrote last, so the page crosses the wire and is shadowed; its messages,
// lock state, page map and the journal of its write take ~3.1 KiB in ~66
// allocations. Before the page pool it was ~11.5 KiB: the shadow copy and
// the fetched page copied out of its frame were a fresh 4 KiB each (the
// page node 1 staged to serve was the second of them, recycled).
const dataRootBytes = pstore.DefaultPageSize

func TestAllocsBytesPerDataRoot(t *testing.T) {
	nodes := startPageDeployment(t, nil)
	page := make([]byte, pstore.DefaultPageSize)
	var bytes, allocs uint64
	var before, after runtime.MemStats
	const roots = 500
	for i := 0; i < 50+roots; i++ {
		if _, err := nodes[0].Run(sheetObj, "fill", page); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		if _, err := nodes[1].Run(sheetObj, "fill", page); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 50 { // the first ones dial, fill the pools and grow the maps
			bytes += after.TotalAlloc - before.TotalAlloc
			allocs += after.Mallocs - before.Mallocs
		}
	}
	perRoot := float64(bytes) / roots
	t.Logf("a data root allocates %.0f B in %.1f allocations", perRoot, float64(allocs)/roots)
	if perRoot >= dataRootBytes {
		t.Errorf("a data root allocates %.0f B, want under %d: a page buffer on the data path is not pooled", perRoot, dataRootBytes)
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
// holds no memory and no goroutine per committed root. Roots move between
// two nodes on a handful of one-page objects. With each object's roots
// alternating between the nodes every one of them crosses the directory
// (acquire, release) and most pull the page from the other node; in runs of
// gdo.KeepStreak+2 at a node the directory leaves the grant there at the
// last first root, the rest run on it and the next node's first recalls it —
// so retained grants, site holds and recall marks are among what must not
// grow.
func TestSteadyStateHeapIsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 44 000 roots")
	}
	t.Run("alternating", func(t *testing.T) { steadyStateHeap(t, 1) })
	t.Run("runs at one node", func(t *testing.T) { steadyStateHeap(t, gdo.KeepStreak+2) })
}

// TestHomePagesKeepNoJournal is the journal's growth gate: roots run at the
// owner of their object, so no page ever leaves its owner, and the delta
// journal — which only a site holding another copy could use — must keep
// nothing for them. With retention off every root is a first root, and the
// directory entry and the site's records of an object do not grow from one
// root to the next; the journal would. While every page journaled from
// birth, this gate measured ≈ 385 B per page: the ring a page written
// 2 × DeltaJournalDepth times fills.
func TestHomePagesKeepNoJournal(t *testing.T) {
	const (
		objects = 256
		repeats = 2 * pstore.DefaultDeltaJournalDepth
		// maxGrowth is per written page.
		maxGrowth = 64
	)
	_, _, nodes := deploy(t, deployment{nodes: 1, protocol: core.LOTEC})
	rootAll := func() {
		for o := 1; o <= objects; o++ {
			if _, err := nodes[0].Run(ids.ObjectID(o), "deposit", i64(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for o := 1; o <= objects; o++ {
		createObject(t, nodes, ids.ObjectID(o), 1)
	}
	rootAll() // dial, fill the pools, make every object's entries
	before := liveHeap()
	for r := 0; r < repeats; r++ {
		rootAll()
	}
	after := liveHeap()
	if grown := int64(after) - int64(before); grown > maxGrowth*objects {
		t.Errorf("live heap grew %d B over %d roots on each of %d home pages: %.1f B per page, want < %d",
			grown, repeats, objects, float64(grown)/objects, maxGrowth)
	} else {
		t.Logf("live heap grew %.1f B per home page over %d roots each", float64(grown)/objects, repeats)
	}
}

// TestZeroPagesShareOneBuffer is the page cache's growth gate: a node that
// reads objects no method has written caches their all-zero pages, and they
// must share its store's zero page instead of taking 4 KiB each. The reads
// leave ≈ 100 B of records per object at the reader; before zero pages were
// shared the heap grew by ≈ 4 160 B per object, a page more.
func TestZeroPagesShareOneBuffer(t *testing.T) {
	const (
		objects = 256
		// maxGrowth is per object read, a quarter of a page.
		maxGrowth = pstore.DefaultPageSize / 4
	)
	nodes := startPageDeployment(t, nil)
	for o := 2; o <= objects+1; o++ {
		createObject(t, nodes, ids.ObjectID(o), 1)
	}
	if _, err := nodes[1].Run(sheetObj, "look", nil); err != nil { // dial, fill the pools
		t.Fatal(err)
	}
	before := liveHeap()
	for o := 2; o <= objects+1; o++ {
		if _, err := nodes[1].Run(ids.ObjectID(o), "look", nil); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	if grown := int64(after) - int64(before); grown > maxGrowth*objects {
		t.Errorf("live heap grew %d B over reads of %d never-written objects: %.1f B per object, want < %d",
			grown, objects, float64(grown)/objects, maxGrowth)
	} else {
		t.Logf("live heap grew %.1f B per never-written object read", float64(grown)/objects)
	}
}

// steadyStateHeap commits the gate's roots with run consecutive roots of an
// object at one node before the other takes over.
func steadyStateHeap(t *testing.T, run int) {
	const (
		warmup  = 2000
		roots   = 20000
		objects = 8
		workers = 4
		// maxGrowth is per committed root. Before PR 13 it grew by ~1 KiB.
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
					if _, err := nodes[i/objects/run%2].Run(obj, "deposit", i64(1)); err != nil {
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
