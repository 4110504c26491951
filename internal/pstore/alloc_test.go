//go:build !race

package pstore

import (
	"runtime"
	"testing"

	"lotec/internal/ids"
)

// bytesPerRun is what f allocates per call, in bytes, averaged over runs
// calls after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestAllocsPagePool gates the page pool itself: taking and giving back a
// page allocates nothing, not even the box that carries it through the
// pool, and a short buffer given back never comes out again as a page.
func TestAllocsPagePool(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		ReleasePage(GetPage(DefaultPageSize))
	}); n != 0 {
		t.Errorf("GetPage/ReleasePage allocates %.2f/op, want 0", n)
	}
	short := make([]byte, 64)
	for i := 0; i < 100; i++ {
		ReleasePage(short)
		if buf := GetPage(DefaultPageSize); cap(buf) != DefaultPageSize {
			t.Fatalf("GetPage returned a buffer of capacity %d after a 64-byte release", cap(buf))
		} else if &buf[0] == &short[0] {
			t.Fatal("GetPage handed out the released 64-byte buffer")
		}
	}
}

// TestAllocsUndoLog gates the shadow log's share of a transaction: a log
// that snapshots nothing — every read-only [sub-]transaction's — costs
// nothing, its zero value included, and a one-page write costs the record
// slice and the seen-set, none of them again at Discard. The shadow copy
// comes from the page pool and goes back at Discard, so at steady state the
// log allocates no page-sized buffer.
func TestAllocsUndoLog(t *testing.T) {
	st := NewStore(DefaultPageSize)
	if err := st.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.InstallPage(ids.PageID{Object: 1}, make([]byte, DefaultPageSize), 1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		var l UndoLog
		l.Discard()
	}); n != 0 {
		t.Errorf("an empty log allocates %.2f, want 0", n)
	}
	pages := []ids.PageNum{0}
	shadow := func() {
		var l UndoLog
		if err := l.SnapshotBefore(st, 1, pages); err != nil {
			t.Fatal(err)
		}
		l.Discard()
	}
	if n := testing.AllocsPerRun(1000, shadow); n > 3 {
		t.Errorf("a one-page shadow log allocates %.2f, want ≤ 3", n)
	}
	if b := bytesPerRun(1000, shadow); b >= DefaultPageSize {
		t.Errorf("a one-page shadow log allocates %.0f B, want under a page (%d B): the shadow page is not pooled", b, DefaultPageSize)
	} else {
		t.Logf("a one-page shadow log allocates %.0f B", b)
	}
}
