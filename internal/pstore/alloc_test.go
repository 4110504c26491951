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
// slice, not again at Discard. The shadow copy
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
	if n := testing.AllocsPerRun(1000, shadow); n > 1 {
		t.Errorf("a one-page shadow log allocates %.2f, want ≤ 1", n)
	}
	if b := bytesPerRun(1000, shadow); b >= DefaultPageSize {
		t.Errorf("a one-page shadow log allocates %.0f B, want under a page (%d B): the shadow page is not pooled", b, DefaultPageSize)
	} else {
		t.Logf("a one-page shadow log allocates %.0f B", b)
	}
}

// TestAllocsJournal gates the journal's write path: an insert into a set
// with room allocates nothing, and a commit of a one-span write — Write,
// seal, ClearDirty — allocates only the touched-page slice Write returns,
// on a home-only page (whose seal keeps its open epoch) and on a served page
// whose ring is full (the evicted epoch's runs become the next open epoch).
func TestAllocsJournal(t *testing.T) {
	set := make(intervalSet, 0, 4)
	if n := testing.AllocsPerRun(1000, func() {
		set = set[:0].insert(8, 4).insert(0, 4).insert(4, 4).insert(32, 1).insert(20, 2)
	}); n != 0 {
		t.Errorf("insert with room allocates %.2f, want 0", n)
	}
	for _, served := range []bool{false, true} {
		st := NewStore(DefaultPageSize)
		if err := st.Register(1, 1); err != nil {
			t.Fatal(err)
		}
		if err := st.Create(1, 1); err != nil {
			t.Fatal(err)
		}
		pid := ids.PageID{Object: 1}
		if served {
			if _, err := st.PageCopyInto(pid, make([]byte, DefaultPageSize)); err != nil {
				t.Fatal(err)
			}
		}
		v := uint64(1)
		data := []byte{1, 2, 3, 4}
		commit := func() {
			v++
			if _, err := st.Write(1, int(v%64), data); err != nil {
				t.Fatal(err)
			}
			if err := st.SetPageVersion(pid, v); err != nil {
				t.Fatal(err)
			}
			st.ClearDirty(1, []ids.PageNum{0})
		}
		for i := 0; i < 2*DefaultDeltaJournalDepth; i++ {
			commit() // fill the ring
		}
		if n := testing.AllocsPerRun(1000, commit); n != 1 {
			t.Errorf("a one-span commit (served %v) allocates %.2f, want 1 (Write's touched pages)", served, n)
		}
		if got := len(st.JournalEpochs(pid)); served != (got == DefaultDeltaJournalDepth) {
			t.Errorf("served %v: ring holds %d epochs", served, got)
		}
	}
}

// TestAllocsZeroInstall gates the zero page: an all-zero copy installed
// into an empty slot allocates its page record and no page buffer, and a
// non-zero one allocates its page.
func TestAllocsZeroInstall(t *testing.T) {
	st := NewStore(DefaultPageSize)
	if err := st.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	pid := ids.PageID{Object: 1}
	data := make([]byte, DefaultPageSize)
	install := func() {
		st.Drop(pid)
		if err := st.InstallPage(pid, data, 1); err != nil {
			t.Fatal(err)
		}
	}
	if b := bytesPerRun(1000, install); b >= DefaultPageSize/4 {
		t.Errorf("an all-zero install allocates %.0f B, want under %d: it took a page buffer", b, DefaultPageSize/4)
	}
	data[DefaultPageSize-1] = 1
	if b := bytesPerRun(1000, install); b < DefaultPageSize {
		t.Errorf("a non-zero install allocates %.0f B, want a page (%d B) or more", b, DefaultPageSize)
	}
}
