//go:build !race

package pstore

import (
	"testing"

	"lotec/internal/ids"
)

// TestAllocsUndoLog gates the shadow log's share of a transaction: a log
// that snapshots nothing — every read-only [sub-]transaction's — costs
// nothing, its zero value included, and a one-page write costs the shadow
// copy, the record slice and the seen-set, none of them again at Discard.
func TestAllocsUndoLog(t *testing.T) {
	st := NewStore(64)
	if err := st.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.InstallPage(ids.PageID{Object: 1}, make([]byte, 64), 1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		var l UndoLog
		l.Discard()
	}); n != 0 {
		t.Errorf("an empty log allocates %.2f, want 0", n)
	}
	pages := []ids.PageNum{0}
	if n := testing.AllocsPerRun(1000, func() {
		var l UndoLog
		if err := l.SnapshotBefore(st, 1, pages); err != nil {
			t.Fatal(err)
		}
		l.Discard()
	}); n > 4 {
		t.Errorf("a one-page shadow log allocates %.2f, want ≤ 4", n)
	}
}
