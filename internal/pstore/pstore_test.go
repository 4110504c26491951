package pstore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"lotec/internal/ids"
)

func mustRegister(t *testing.T, s *Store, obj ids.ObjectID, n int) {
	t.Helper()
	if err := s.Register(obj, n); err != nil {
		t.Fatalf("Register(%v, %d): %v", obj, n, err)
	}
}

func mustMaterialize(t *testing.T, s *Store, obj ids.ObjectID) {
	t.Helper()
	if err := s.Materialize(obj); err != nil {
		t.Fatalf("Materialize(%v): %v", obj, err)
	}
}

func TestNewStoreDefaults(t *testing.T) {
	if got := NewStore(0).PageSize(); got != DefaultPageSize {
		t.Errorf("PageSize() = %d, want %d", got, DefaultPageSize)
	}
	if got := NewStore(128).PageSize(); got != 128 {
		t.Errorf("PageSize() = %d, want 128", got)
	}
}

func TestRegisterRejectsBadShape(t *testing.T) {
	s := NewStore(64)
	if err := s.Register(1, 0); err == nil {
		t.Error("Register with 0 pages should fail")
	}
	mustRegister(t, s, 1, 3)
	if err := s.Register(1, 3); err != nil {
		t.Errorf("idempotent re-register failed: %v", err)
	}
	if err := s.Register(1, 4); !errors.Is(err, ErrObjectExists) {
		t.Errorf("conflicting re-register: got %v, want ErrObjectExists", err)
	}
}

func TestUnknownObjectErrors(t *testing.T) {
	s := NewStore(64)
	if _, err := s.Read(9, 0, 1); !errors.Is(err, ErrObjectUnknown) {
		t.Errorf("Read unknown: %v", err)
	}
	if _, err := s.Write(9, 0, []byte{1}); !errors.Is(err, ErrObjectUnknown) {
		t.Errorf("Write unknown: %v", err)
	}
	if err := s.Materialize(9); !errors.Is(err, ErrObjectUnknown) {
		t.Errorf("Materialize unknown: %v", err)
	}
	if err := s.Create(9, 1); !errors.Is(err, ErrObjectUnknown) {
		t.Errorf("Create unknown: %v", err)
	}
	if _, err := s.NumPages(9); !errors.Is(err, ErrObjectUnknown) {
		t.Errorf("NumPages unknown: %v", err)
	}
}

func TestMaterializeAndReadZeroFilled(t *testing.T) {
	s := NewStore(32)
	mustRegister(t, s, 1, 2)
	mustMaterialize(t, s, 1)
	got, err := s.Read(1, 0, 64)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Error("materialized pages are not zero-filled")
	}
}

// TestCreateOverwritesZeroFilled: Create makes every page resident, zeroed,
// at the given version, a resident one included.
func TestCreateOverwritesZeroFilled(t *testing.T) {
	s := NewStore(32)
	mustRegister(t, s, 1, 2)
	if err := s.InstallPage(ids.PageID{Object: 1, Page: 1}, bytes.Repeat([]byte{7}, 32), 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(1, 1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1, 0, 64)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Error("created pages are not zero-filled")
	}
	for p := ids.PageNum(0); p < 2; p++ {
		if v, ok := s.PageVersion(ids.PageID{Object: 1, Page: p}); !ok || v != 1 {
			t.Errorf("page %d at version %d (resident %v), want 1", p, v, ok)
		}
	}
}

func TestReadMissingPage(t *testing.T) {
	s := NewStore(32)
	mustRegister(t, s, 1, 2)
	// Only page 0 resident.
	if err := s.InstallPage(ids.PageID{Object: 1, Page: 0}, make([]byte, 32), 1); err != nil {
		t.Fatal(err)
	}
	_, err := s.Read(1, 16, 32) // spans into page 1
	var pm *PageMissingError
	if !errors.As(err, &pm) {
		t.Fatalf("Read across missing page: got %v, want PageMissingError", err)
	}
	if pm.PID != (ids.PageID{Object: 1, Page: 1}) {
		t.Errorf("missing PID = %v, want O1/p1", pm.PID)
	}
}

func TestWriteSpansPagesAndMarksDirty(t *testing.T) {
	s := NewStore(16)
	mustRegister(t, s, 1, 3)
	mustMaterialize(t, s, 1)
	data := bytes.Repeat([]byte{0xAB}, 20)
	touched, err := s.Write(1, 10, data) // pages 0 and 1
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if len(touched) != 2 || touched[0] != 0 || touched[1] != 1 {
		t.Errorf("touched = %v, want [0 1]", touched)
	}
	if d := s.DirtyPages(1); len(d) != 2 || d[0] != 0 || d[1] != 1 {
		t.Errorf("DirtyPages = %v, want [0 1]", d)
	}
	got, err := s.Read(1, 10, 20)
	if err != nil {
		t.Fatalf("Read back: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read-back mismatch")
	}
	// Page 2 untouched and clean.
	got2, err := s.Read(1, 32, 16)
	if err != nil {
		t.Fatalf("Read page 2: %v", err)
	}
	if !bytes.Equal(got2, make([]byte, 16)) {
		t.Error("page 2 corrupted by spanning write")
	}
}

func TestWriteMissingPageFailsWithoutPartialEffect(t *testing.T) {
	s := NewStore(16)
	mustRegister(t, s, 1, 2)
	if err := s.InstallPage(ids.PageID{Object: 1, Page: 0}, bytes.Repeat([]byte{1}, 16), 1); err != nil {
		t.Fatal(err)
	}
	_, err := s.Write(1, 8, bytes.Repeat([]byte{9}, 16)) // would span into missing page 1
	var pm *PageMissingError
	if !errors.As(err, &pm) {
		t.Fatalf("got %v, want PageMissingError", err)
	}
	got, err := s.Read(1, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{1}, 16)) {
		t.Error("failed write left partial effects on page 0")
	}
	if d := s.DirtyPages(1); len(d) != 0 {
		t.Errorf("failed write dirtied pages: %v", d)
	}
}

func TestBoundsChecking(t *testing.T) {
	s := NewStore(16)
	mustRegister(t, s, 1, 2)
	mustMaterialize(t, s, 1)
	var be *BoundsError
	if _, err := s.Read(1, -1, 4); !errors.As(err, &be) {
		t.Errorf("negative offset: %v", err)
	}
	if _, err := s.Read(1, 30, 4); !errors.As(err, &be) {
		t.Errorf("overrun: %v", err)
	}
	if _, err := s.Write(1, 31, []byte{1, 2}); !errors.As(err, &be) {
		t.Errorf("write overrun: %v", err)
	}
	if _, err := s.Read(1, 0, 32); err != nil {
		t.Errorf("full-extent read should pass: %v", err)
	}
}

func TestInstallPageValidation(t *testing.T) {
	s := NewStore(16)
	mustRegister(t, s, 1, 2)
	if err := s.InstallPage(ids.PageID{Object: 1, Page: 5}, make([]byte, 16), 1); err == nil {
		t.Error("install out-of-range page should fail")
	}
	if err := s.InstallPage(ids.PageID{Object: 1, Page: 0}, make([]byte, 8), 1); err == nil {
		t.Error("install wrong-size page should fail")
	}
	if err := s.InstallPage(ids.PageID{Object: 2, Page: 0}, make([]byte, 16), 1); !errors.Is(err, ErrObjectUnknown) {
		t.Errorf("install on unknown object: %v", err)
	}
}

func TestInstallPageCopiesData(t *testing.T) {
	s := NewStore(4)
	mustRegister(t, s, 1, 1)
	buf := []byte{1, 2, 3, 4}
	if err := s.InstallPage(ids.PageID{Object: 1, Page: 0}, buf, 7); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // mutate caller's slice
	got, err := s.Read(1, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("InstallPage aliased caller's buffer")
	}
	if v, ok := s.PageVersion(ids.PageID{Object: 1, Page: 0}); !ok || v != 7 {
		t.Errorf("PageVersion = %d,%v, want 7,true", v, ok)
	}
}

func TestPageCopyIsolation(t *testing.T) {
	s := NewStore(4)
	mustRegister(t, s, 1, 1)
	mustMaterialize(t, s, 1)
	if _, err := s.Write(1, 0, []byte{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	cp, v, err := s.PageCopy(ids.PageID{Object: 1, Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("version = %d, want 0 (not yet committed)", v)
	}
	cp[0] = 99
	got, _ := s.Read(1, 0, 1)
	if got[0] != 5 {
		t.Error("PageCopy aliased store memory")
	}
}

func TestPageCopyMissing(t *testing.T) {
	s := NewStore(4)
	mustRegister(t, s, 1, 1)
	var pm *PageMissingError
	if _, _, err := s.PageCopy(ids.PageID{Object: 1, Page: 0}); !errors.As(err, &pm) {
		t.Errorf("got %v, want PageMissingError", err)
	}
}

func TestSetPageVersion(t *testing.T) {
	s := NewStore(4)
	mustRegister(t, s, 1, 1)
	mustMaterialize(t, s, 1)
	pid := ids.PageID{Object: 1, Page: 0}
	if err := s.SetPageVersion(pid, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.PageVersion(pid); v != 42 {
		t.Errorf("version = %d, want 42", v)
	}
	var pm *PageMissingError
	if err := s.SetPageVersion(ids.PageID{Object: 1, Page: 9}, 1); !errors.As(err, &pm) {
		t.Errorf("SetPageVersion on missing page: %v", err)
	}
}

func TestClearDirty(t *testing.T) {
	s := NewStore(8)
	mustRegister(t, s, 1, 3)
	mustMaterialize(t, s, 1)
	if _, err := s.Write(1, 0, make([]byte, 24)); err != nil {
		t.Fatal(err)
	}
	s.ClearDirty(1, []ids.PageNum{0, 2})
	if d := s.DirtyPages(1); len(d) != 1 || d[0] != 1 {
		t.Errorf("DirtyPages = %v, want [1]", d)
	}
	s.ClearDirty(2, []ids.PageNum{0}) // unknown object: no-op
}

func TestResidentPagesPartial(t *testing.T) {
	s := NewStore(8)
	mustRegister(t, s, 1, 4)
	_ = s.InstallPage(ids.PageID{Object: 1, Page: 1}, make([]byte, 8), 1)
	_ = s.InstallPage(ids.PageID{Object: 1, Page: 3}, make([]byte, 8), 1)
	got := s.ResidentPages(1)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("ResidentPages = %v, want [1 3]", got)
	}
	if s.ResidentPages(7) != nil {
		t.Error("ResidentPages of unknown object should be nil")
	}
}

func TestUndoRestoresExactBytes(t *testing.T) {
	s := NewStore(8)
	mustRegister(t, s, 1, 2)
	mustMaterialize(t, s, 1)
	if _, err := s.Write(1, 0, []byte{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	s.ClearDirty(1, []ids.PageNum{0})
	before, _ := s.Read(1, 0, 16)

	l := NewUndoLog()
	if err := l.SnapshotBefore(s, 1, []ids.PageNum{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(1, 2, []byte{9, 9, 9, 9, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	l.Undo(s)
	after, _ := s.Read(1, 0, 16)
	if !bytes.Equal(before, after) {
		t.Errorf("undo mismatch: before %v after %v", before, after)
	}
	if d := s.DirtyPages(1); len(d) != 0 {
		t.Errorf("undo should restore clean dirty flags, got %v", d)
	}
	if l.Len() != 0 {
		t.Error("Undo should empty the log")
	}
}

func TestUndoLogSkipsDuplicateSnapshots(t *testing.T) {
	s := NewStore(8)
	mustRegister(t, s, 1, 1)
	mustMaterialize(t, s, 1)
	l := NewUndoLog()
	if err := l.SnapshotBefore(s, 1, []ids.PageNum{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(1, 0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := l.SnapshotBefore(s, 1, []ids.PageNum{0}); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("log has %d records, want 1", l.Len())
	}
	l.Undo(s)
	got, _ := s.Read(1, 0, 1)
	if got[0] != 0 {
		t.Errorf("undo restored %d, want original 0", got[0])
	}
}

func TestUndoMergeIntoParentRestoresOldest(t *testing.T) {
	s := NewStore(4)
	mustRegister(t, s, 1, 1)
	mustMaterialize(t, s, 1)
	_, _ = s.Write(1, 0, []byte{10}) // state at parent start
	s.ClearDirty(1, []ids.PageNum{0})

	parent := NewUndoLog()
	// Child 1 writes 20 and pre-commits.
	c1 := NewUndoLog()
	_ = c1.SnapshotBefore(s, 1, []ids.PageNum{0})
	_, _ = s.Write(1, 0, []byte{20})
	c1.MergeInto(parent)
	if c1.Len() != 0 {
		t.Error("MergeInto should empty the child log")
	}
	// Child 2 writes 30 and pre-commits.
	c2 := NewUndoLog()
	_ = c2.SnapshotBefore(s, 1, []ids.PageNum{0})
	_, _ = s.Write(1, 0, []byte{30})
	c2.MergeInto(parent)

	parent.Undo(s) // parent aborts: must restore 10, not 20
	got, _ := s.Read(1, 0, 1)
	if got[0] != 10 {
		t.Errorf("after parent abort byte = %d, want 10", got[0])
	}
}

func TestUndoLogPagesOrder(t *testing.T) {
	s := NewStore(4)
	mustRegister(t, s, 1, 3)
	mustMaterialize(t, s, 1)
	l := NewUndoLog()
	_ = l.SnapshotBefore(s, 1, []ids.PageNum{2})
	_ = l.SnapshotBefore(s, 1, []ids.PageNum{0, 2})
	pages := l.Pages()
	want := []ids.PageID{{Object: 1, Page: 2}, {Object: 1, Page: 0}}
	if len(pages) != 2 || pages[0] != want[0] || pages[1] != want[1] {
		t.Errorf("Pages() = %v, want %v", pages, want)
	}
}

func TestUndoDiscard(t *testing.T) {
	s := NewStore(4)
	mustRegister(t, s, 1, 1)
	mustMaterialize(t, s, 1)
	l := NewUndoLog()
	_ = l.SnapshotBefore(s, 1, []ids.PageNum{0})
	_, _ = s.Write(1, 0, []byte{5})
	l.Discard()
	if l.Len() != 0 {
		t.Error("Discard should empty the log")
	}
	l.Undo(s) // no-op
	got, _ := s.Read(1, 0, 1)
	if got[0] != 5 {
		t.Error("Undo after Discard must not restore")
	}
}

func TestUndoSnapshotMissingPage(t *testing.T) {
	s := NewStore(4)
	mustRegister(t, s, 1, 2)
	l := NewUndoLog()
	var pm *PageMissingError
	if err := l.SnapshotBefore(s, 1, []ids.PageNum{0}); !errors.As(err, &pm) {
		t.Errorf("got %v, want PageMissingError", err)
	}
	if err := l.SnapshotBefore(s, 2, nil); !errors.Is(err, ErrObjectUnknown) {
		t.Errorf("got %v, want ErrObjectUnknown", err)
	}
}

// Property: for any random sequence of writes wrapped in nested undo scopes
// that all abort, the final state equals the initial state.
func TestUndoPropertyRandomNestedAbort(t *testing.T) {
	const pageSize, numPages = 16, 4
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(pageSize)
		if err := s.Register(1, numPages); err != nil {
			return false
		}
		if err := s.Materialize(1); err != nil {
			return false
		}
		// Random initial contents.
		init := make([]byte, pageSize*numPages)
		rng.Read(init)
		if _, err := s.Write(1, 0, init); err != nil {
			return false
		}
		s.ClearDirty(1, []ids.PageNum{0, 1, 2, 3})

		// Build a random nesting of aborting scopes, each doing random writes.
		var stack []*UndoLog
		root := NewUndoLog()
		stack = append(stack, root)
		for _, op := range opsRaw {
			switch op % 4 {
			case 0: // open child scope
				stack = append(stack, NewUndoLog())
			case 1: // pre-commit child into parent
				if len(stack) > 1 {
					child := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					child.MergeInto(stack[len(stack)-1])
				}
			case 2: // abort top scope in place
				stack[len(stack)-1].Undo(s)
			default: // random write under top scope
				off := rng.Intn(pageSize*numPages - 1)
				n := 1 + rng.Intn(pageSize)
				if off+n > pageSize*numPages {
					n = pageSize*numPages - off
				}
				first := ids.PageNum(off / pageSize)
				last := ids.PageNum((off + n - 1) / pageSize)
				var pages []ids.PageNum
				for p := first; p <= last; p++ {
					pages = append(pages, p)
				}
				if err := stack[len(stack)-1].SnapshotBefore(s, 1, pages); err != nil {
					return false
				}
				buf := make([]byte, n)
				rng.Read(buf)
				if _, err := s.Write(1, off, buf); err != nil {
					return false
				}
			}
		}
		// Abort everything, innermost first.
		for i := len(stack) - 1; i >= 0; i-- {
			stack[i].Undo(s)
		}
		got, err := s.Read(1, 0, pageSize*numPages)
		if err != nil {
			return false
		}
		return bytes.Equal(got, init)
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestInstallOverResidentEqualsInstallIntoEmpty: InstallPage reuses a
// resident page's buffer, and nothing observable may tell that apart from
// installing into an empty slot — whatever history the resident copy had
// (committed versions with a sealed journal, uncommitted writes, an
// aborted write).
func TestInstallOverResidentEqualsInstallIntoEmpty(t *testing.T) {
	const pageSize = 64
	const obj = ids.ObjectID(3)
	pid := ids.PageID{Object: obj, Page: 0}
	scratch := make([]byte, pageSize)

	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		used, fresh := NewStore(pageSize), NewStore(pageSize)
		mustRegister(t, used, obj, 1)
		mustRegister(t, fresh, obj, 1)

		// Give the resident copy a random past.
		version := uint64(1)
		if err := used.InstallPage(pid, make([]byte, pageSize), version); err != nil {
			t.Fatal(err)
		}
		for step := rng.Intn(6); step > 0; step-- {
			off := rng.Intn(pageSize)
			data := make([]byte, 1+rng.Intn(pageSize-off))
			rng.Read(data)
			log := NewUndoLog()
			if err := log.SnapshotBefore(used, obj, []ids.PageNum{0}); err != nil {
				t.Fatal(err)
			}
			if _, err := used.Write(obj, off, data); err != nil {
				t.Fatal(err)
			}
			switch rng.Intn(3) {
			case 0: // commit: seal the journal
				version++
				if err := used.SetPageVersion(pid, version); err != nil {
					t.Fatal(err)
				}
				used.ClearDirty(obj, []ids.PageNum{0})
			case 1: // abort
				log.Undo(used)
			default: // leave it dirty
			}
		}

		incoming := make([]byte, pageSize)
		rng.Read(incoming)
		newVersion := version + 1 + uint64(rng.Intn(5))
		for _, s := range []*Store{used, fresh} {
			if err := s.InstallPage(pid, incoming, newVersion); err != nil {
				t.Fatal(err)
			}
		}
		want := append([]byte(nil), incoming...)
		incoming[0] ^= 0xFF // the stores must hold copies

		for name, s := range map[string]*Store{"resident": used, "empty": fresh} {
			got, v, err := s.PageCopy(pid)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || v != newVersion {
				t.Errorf("seed %d, install over %s: page differs from the installed copy (version %d, want %d)", seed, name, v, newVersion)
			}
			if d := s.DirtyPages(obj); len(d) != 0 {
				t.Errorf("seed %d, install over %s: dirty pages %v", seed, name, d)
			}
			if j := s.JournalEpochs(pid); len(j) != 0 {
				t.Errorf("seed %d, install over %s: journal %v survived", seed, name, j)
			}
			for base := uint64(0); base <= newVersion; base++ {
				if _, _, _, ok := s.DeltaSince(pid, base, scratch); ok {
					t.Errorf("seed %d, install over %s: DeltaSince(%d) answered from a journal the install should have dropped", seed, name, base)
				}
			}
		}

		// And they stay indistinguishable: the next commit journals the same
		// delta on both.
		for _, s := range []*Store{used, fresh} {
			if _, err := s.Write(obj, 5, []byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			if err := s.SetPageVersion(pid, newVersion+1); err != nil {
				t.Fatal(err)
			}
			s.ClearDirty(obj, []ids.PageNum{0})
		}
		bufA, bufB := make([]byte, pageSize), make([]byte, pageSize)
		runsA, tA, nA, okA := used.DeltaSince(pid, newVersion, bufA)
		runsB, tB, nB, okB := fresh.DeltaSince(pid, newVersion, bufB)
		if !okA || !okB || tA != tB || nA != nB || !bytes.Equal(bufA[:nA], bufB[:nB]) || len(runsA) != len(runsB) {
			t.Errorf("seed %d: deltas after the install differ: %v/%d/%v vs %v/%d/%v", seed, runsA, tA, okA, runsB, tB, okB)
		}
	}
}
