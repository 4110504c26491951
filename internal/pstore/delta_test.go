package pstore

import (
	"bytes"
	"math/rand"
	"testing"

	"lotec/internal/ids"
)

// TestDeltaPropertyRandomCommitTrees is the delta correctness property: over
// random write/abort/commit transaction trees, a receiver holding any
// historical page image that DeltaSince can still serve a delta for must,
// after ApplyDelta, hold the current page byte-for-byte. Rounds that abort
// (at the child or the root) roll their journal contributions back through
// the shadow-page undo path, so the property also pins that Undo restores
// the open epoch exactly.
func TestDeltaPropertyRandomCommitTrees(t *testing.T) {
	const pageSize = 256
	const obj = ids.ObjectID(7)
	pid := ids.PageID{Object: obj, Page: 0}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := NewStore(pageSize)
		if err := src.Register(obj, 1); err != nil {
			t.Fatal(err)
		}
		if err := src.InstallPage(pid, make([]byte, pageSize), 1); err != nil {
			t.Fatal(err)
		}

		// images[v] is the committed page content at version v.
		images := map[uint64][]byte{}
		snap, _, err := src.PageCopy(pid)
		if err != nil {
			t.Fatal(err)
		}
		images[1] = snap

		writeSome := func(log *UndoLog) {
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				off := rng.Intn(pageSize)
				ln := 1 + rng.Intn(pageSize-off)
				if ln > 24 {
					ln = 24
				}
				if err := log.SnapshotBefore(src, obj, []ids.PageNum{0}); err != nil {
					t.Fatal(err)
				}
				data := make([]byte, ln)
				rng.Read(data)
				if _, err := src.Write(obj, off, data); err != nil {
					t.Fatal(err)
				}
			}
		}

		for round := 0; round < 30; round++ {
			beforeEpochs := len(src.JournalEpochs(pid))
			before, ver, err := src.PageCopy(pid)
			if err != nil {
				t.Fatal(err)
			}

			// One root with a child sub-transaction: the child either aborts
			// (its writes undone immediately) or pre-commits (its log merges
			// into the root's); then the root aborts or commits.
			root := NewUndoLog()
			writeSome(root)
			child := NewUndoLog()
			writeSome(child)
			if rng.Intn(2) == 0 {
				child.Undo(src)
			} else {
				child.MergeInto(root)
			}

			if rng.Intn(3) == 0 { // root abort
				root.Undo(src)
				after, v2, err := src.PageCopy(pid)
				if err != nil {
					t.Fatal(err)
				}
				if v2 != ver || !bytes.Equal(after, before) {
					t.Fatalf("seed %d round %d: abort did not restore page (v%d→v%d)", seed, round, ver, v2)
				}
				if got := len(src.JournalEpochs(pid)); got != beforeEpochs {
					t.Fatalf("seed %d round %d: abort changed sealed epochs %d→%d", seed, round, beforeEpochs, got)
				}
				continue
			}

			root.Discard()
			if err := src.SetPageVersion(pid, ver+1); err != nil {
				t.Fatal(err)
			}
			src.ClearDirty(obj, []ids.PageNum{0})
			now, _, err := src.PageCopy(pid)
			if err != nil {
				t.Fatal(err)
			}
			images[ver+1] = now

			// Every historical image either patches forward to the current
			// bytes, or the journal honestly refuses (fallback).
			cur, _ := src.PageVersion(pid)
			served := 0
			for base, img := range images {
				if base >= cur {
					continue
				}
				buf := make([]byte, pageSize)
				runs, target, n, ok := src.DeltaSince(pid, base, buf)
				if !ok {
					continue
				}
				served++
				if target != cur {
					t.Fatalf("seed %d round %d: delta targets v%d, page is v%d", seed, round, target, cur)
				}
				dst := NewStore(pageSize)
				if err := dst.Register(obj, 1); err != nil {
					t.Fatal(err)
				}
				if err := dst.InstallPage(pid, img, base); err != nil {
					t.Fatal(err)
				}
				if err := dst.ApplyDelta(pid, base, target, runs, buf[:n]); err != nil {
					t.Fatalf("seed %d round %d: apply delta from v%d: %v", seed, round, base, err)
				}
				got, v2, err := dst.PageCopy(pid)
				if err != nil {
					t.Fatal(err)
				}
				if v2 != cur || !bytes.Equal(got, images[cur]) {
					t.Fatalf("seed %d round %d: delta from v%d not byte-identical to full page", seed, round, base)
				}
			}
			// The epoch just sealed must always be servable: the commit wrote
			// at least one byte and the ring holds >= 1 epoch.
			buf := make([]byte, pageSize)
			if _, _, _, ok := src.DeltaSince(pid, cur-1, buf); !ok {
				t.Fatalf("seed %d round %d: newest epoch v%d→v%d unservable", seed, round, cur-1, cur)
			}
			_ = served
		}
	}
}

// TestDeltaJournalDepthEviction pins the bounded-ring fallback: bases that
// fell off the journal (or predate it) are refused — the wire layer then
// ships a full page — while bases still inside the ring keep serving.
func TestDeltaJournalDepthEviction(t *testing.T) {
	const pageSize = 128
	const obj = ids.ObjectID(3)
	pid := ids.PageID{Object: obj, Page: 0}
	s := NewStore(pageSize)
	s.SetJournalDepth(3)
	if err := s.Register(obj, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallPage(pid, make([]byte, pageSize), 1); err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v < 9; v++ {
		if _, err := s.Write(obj, int(v)%pageSize, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetPageVersion(pid, v+1); err != nil {
			t.Fatal(err)
		}
		s.ClearDirty(obj, []ids.PageNum{0})
	}
	// Page is at v9; ring holds epochs 6→7, 7→8, 8→9.
	buf := make([]byte, pageSize)
	for base := uint64(1); base < 6; base++ {
		if _, _, _, ok := s.DeltaSince(pid, base, buf); ok {
			t.Errorf("base v%d served after eviction (depth 3, page v9)", base)
		}
	}
	for base := uint64(6); base < 9; base++ {
		runs, target, _, ok := s.DeltaSince(pid, base, buf)
		if !ok || target != 9 || len(runs) == 0 {
			t.Errorf("base v%d inside ring unservable (ok=%v target=%d)", base, ok, target)
		}
	}
	if got := s.JournalEpochs(pid); len(got) != 3 {
		t.Errorf("ring holds %d epochs, want 3", len(got))
	}
}

// TestDeltaReceiverChainsOnward pins that a receiver which applied a delta
// records the epoch in its own journal and can serve deltas onward — the
// property that keeps LOTEC's scattered gathers delta-eligible at every hop.
func TestDeltaReceiverChainsOnward(t *testing.T) {
	const pageSize = 64
	const obj = ids.ObjectID(4)
	pid := ids.PageID{Object: obj, Page: 0}
	a := NewStore(pageSize)
	b := NewStore(pageSize)
	for _, s := range []*Store{a, b} {
		if err := s.Register(obj, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.InstallPage(pid, make([]byte, pageSize), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Write(obj, 5, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetPageVersion(pid, 2); err != nil {
		t.Fatal(err)
	}
	a.ClearDirty(obj, []ids.PageNum{0})

	buf := make([]byte, pageSize)
	runs, target, n, ok := a.DeltaSince(pid, 1, buf)
	if !ok {
		t.Fatal("source cannot serve newest epoch")
	}
	if err := b.ApplyDelta(pid, 1, target, runs, buf[:n]); err != nil {
		t.Fatal(err)
	}
	// b can now serve the same delta to a third site.
	buf2 := make([]byte, pageSize)
	runs2, target2, n2, ok := b.DeltaSince(pid, 1, buf2)
	if !ok || target2 != 2 {
		t.Fatalf("receiver cannot chain delta onward (ok=%v target=%d)", ok, target2)
	}
	c := NewStore(pageSize)
	if err := c.Register(obj, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallPage(pid, make([]byte, pageSize), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyDelta(pid, 1, target2, runs2, buf2[:n2]); err != nil {
		t.Fatal(err)
	}
	want, _, _ := a.PageCopy(pid)
	got, _, _ := c.PageCopy(pid)
	if !bytes.Equal(want, got) {
		t.Fatal("two-hop delta chain not byte-identical to source")
	}
}

// TestApplyDeltaWrongBaseErrs pins the eviction contract ApplyPush relies
// on: a delta landing on the wrong base returns ErrDeltaBase (and changes
// nothing) rather than corrupting the page.
func TestApplyDeltaWrongBaseErrs(t *testing.T) {
	const pageSize = 64
	pid := ids.PageID{Object: 9, Page: 0}
	s := NewStore(pageSize)
	if err := s.Register(9, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallPage(pid, make([]byte, pageSize), 5); err != nil {
		t.Fatal(err)
	}
	err := s.ApplyDelta(pid, 3, 6, []Span{{Off: 0, Len: 1}}, []byte{1})
	if err == nil {
		t.Fatal("delta with base v3 applied onto a v5 page")
	}
	if v, _ := s.PageVersion(pid); v != 5 {
		t.Fatalf("failed apply moved the version to %d", v)
	}
}

// TestDeltaJournalRingKeepsItsCapacity: a page written for ever holds a ring
// of the journal depth, not of the next slice capacity beyond it (appending
// before evicting grew the default ring of 8 to 16, on every hot page).
func TestDeltaJournalRingKeepsItsCapacity(t *testing.T) {
	const pageSize = 64
	pid := ids.PageID{Object: 1}
	s := NewStore(pageSize)
	if err := s.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallPage(pid, make([]byte, pageSize), 1); err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 100; v++ {
		if _, err := s.Write(1, 0, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetPageVersion(pid, v+1); err != nil {
			t.Fatal(err)
		}
		s.ClearDirty(1, []ids.PageNum{0})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, _ := s.lookupLocked(pid)
	if len(pg.hist) != DefaultDeltaJournalDepth || cap(pg.hist) != DefaultDeltaJournalDepth {
		t.Errorf("ring has len %d cap %d after 100 commits, want %d and %d", len(pg.hist), cap(pg.hist), DefaultDeltaJournalDepth, DefaultDeltaJournalDepth)
	}
}
