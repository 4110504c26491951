package gdo

import (
	"bytes"
	"errors"
	"testing"

	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// commitOnce runs family f through one committing write of obj.
func commitOnce(t *testing.T, d *Directory, obj ids.ObjectID, f ids.FamilyID) {
	t.Helper()
	if res, _, err := d.Acquire(obj, ref(f, 1), f, uint64(f), 1, o2pl.Write); err != nil || res.Status != GrantedNow {
		t.Fatalf("acquire by %v: %v, %v", f, res.Status, err)
	}
	if _, _, err := d.Release(f, 1, true, []ObjectRelease{{Obj: obj, Dirty: []ids.PageNum{0}}}); err != nil {
		t.Fatalf("release by %v: %v", f, err)
	}
}

func TestCommitWindowIsBounded(t *testing.T) {
	d := newDir(t, 1)
	const commits = 3 * CommitWindowSize
	for f := ids.FamilyID(1); f <= commits; f++ {
		commitOnce(t, d, 1, f)
	}
	if got := len(d.commits.order); got != CommitWindowSize {
		t.Errorf("window indexes %d families after %d commits, want %d", got, commits, CommitWindowSize)
	}
	if got := d.commits.Len(); got != CommitWindowSize {
		t.Errorf("ring holds %d entries, want %d", got, CommitWindowSize)
	}

	// Inside the window a repeated assignment — a retried CommitSeqReq, or
	// the family's releases reaching further shards — changes nothing.
	for _, f := range []ids.FamilyID{commits, commits - CommitWindowSize + 1} {
		if seq, ok := d.CommitSeq(f); !ok || seq != uint64(f) {
			t.Errorf("CommitSeq(%v) = %d, %v; want %d", f, seq, ok, f)
		}
		if seq := d.AssignCommitSeq(f); seq != uint64(f) {
			t.Errorf("re-assigning %v gave %d, want %d", f, seq, f)
		}
	}
	// Just outside it the family is forgotten.
	if _, ok := d.CommitSeq(commits - CommitWindowSize); ok {
		t.Error("assignment older than the window still remembered")
	}
	if seq := d.AssignCommitSeq(commits + 1); seq != commits+1 {
		t.Errorf("next assignment = %d, want %d", seq, commits+1)
	}
}

// TestCommitWindowSurvivesExport checks the window round-trips through a
// snapshot at every fill level that matters: empty, partly filled (the ring
// is still growing), exactly full, and wrapped at an offset.
func TestCommitWindowSurvivesExport(t *testing.T) {
	for _, commits := range []int{0, 5, CommitWindowSize, 2*CommitWindowSize + 7} {
		d := newDir(t, 1)
		for f := 1; f <= commits; f++ {
			d.AssignCommitSeq(ids.FamilyID(f))
		}
		snap := d.Export()
		got, err := Import(snap)
		if err != nil {
			t.Fatalf("%d commits: import: %v", commits, err)
		}
		if !bytes.Equal(got.Export(), snap) {
			t.Errorf("%d commits: re-export differs from the snapshot", commits)
		}
		// Both keep evicting in step: the window is a function of the
		// assignment sequence alone.
		for f := commits + 1; f <= commits+CommitWindowSize/2; f++ {
			if a, b := d.AssignCommitSeq(ids.FamilyID(f)), got.AssignCommitSeq(ids.FamilyID(f)); a != b {
				t.Fatalf("%d commits: original assigned %d, imported copy %d", commits, a, b)
			}
		}
		if !bytes.Equal(got.Export(), d.Export()) {
			t.Errorf("%d commits: windows diverged after further assignments", commits)
		}
	}
}

func TestImportRejectsBadCommitWindow(t *testing.T) {
	d := newDir(t)
	for f := ids.FamilyID(1); f <= 3; f++ {
		d.AssignCommitSeq(f)
	}
	good := d.Export()
	// Layout: magic u32, version u8, nodes u32, seq u64, count u32, then
	// (family u64, seq u64) per entry.
	const seqOff, firstEntry = 9, 21
	for name, corrupt := range map[string]func(b []byte){
		"sequence ahead of the entries": func(b []byte) { b[seqOff]++ },
		"entry out of order":            func(b []byte) { b[firstEntry+8]++ },
		"family listed twice":           func(b []byte) { copy(b[firstEntry:firstEntry+8], b[firstEntry+16:firstEntry+24]) },
	} {
		bad := bytes.Clone(good)
		corrupt(bad)
		if _, err := Import(bad); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: Import error = %v, want ErrBadSnapshot", name, err)
		}
	}
}
