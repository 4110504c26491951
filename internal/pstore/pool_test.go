package pstore

import (
	"bytes"
	"testing"

	"lotec/internal/ids"
)

func TestGetPageSizes(t *testing.T) {
	for _, size := range []int{0, 64, DefaultPageSize} {
		buf := GetPage(size)
		if len(buf) != size || cap(buf) != DefaultPageSize {
			t.Errorf("GetPage(%d): len %d cap %d, want len %d cap %d", size, len(buf), cap(buf), size, DefaultPageSize)
		}
		ReleasePage(buf)
	}
	big := GetPage(2 * DefaultPageSize)
	if len(big) != 2*DefaultPageSize {
		t.Errorf("GetPage(%d): len %d", 2*DefaultPageSize, len(big))
	}
	ReleasePage(big) // dropped, not pooled
	ReleasePage(nil)
}

// TestShadowPagesArePoisonedOnRelease: in race builds a page given back to
// the pool is overwritten with 0xDB, so a shadow page read after Discard or
// Undo — a use after release — reads garbage instead of the old bytes.
func TestShadowPagesArePoisonedOnRelease(t *testing.T) {
	if !pagePoison {
		t.Skip("released pages are poisoned in race builds only")
	}
	st := NewStore(DefaultPageSize)
	if err := st.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	pid := ids.PageID{Object: 1}
	if err := st.InstallPage(pid, bytes.Repeat([]byte{7}, DefaultPageSize), 1); err != nil {
		t.Fatal(err)
	}
	poison := bytes.Repeat([]byte{0xDB}, DefaultPageSize)
	for _, end := range []struct {
		name string
		fn   func(*UndoLog)
	}{
		{"Discard", func(l *UndoLog) { l.Discard() }},
		{"Undo", func(l *UndoLog) { l.Undo(st) }},
	} {
		var l UndoLog
		if err := l.SnapshotBefore(st, 1, []ids.PageNum{0}); err != nil {
			t.Fatal(err)
		}
		shadow := l.recs[0].before
		if !bytes.Equal(shadow, bytes.Repeat([]byte{7}, DefaultPageSize)) {
			t.Fatalf("%s: shadow page does not hold the page's bytes", end.name)
		}
		end.fn(&l)
		if !bytes.Equal(shadow, poison) {
			t.Errorf("%s: the released shadow page still holds readable bytes", end.name)
		}
	}
	got, _, err := st.PageCopy(pid)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Errorf("Undo restored %#x, want 7: it read the shadow page after releasing it", got[0])
	}
}
