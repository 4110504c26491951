package gdo

import (
	"bytes"
	"errors"
	"math/rand"
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
	indexed := 0
	for _, slot := range d.commits.slots {
		if slot.seq != 0 {
			indexed++
		}
	}
	if indexed != CommitWindowSize {
		t.Errorf("window indexes %d families after %d commits, want %d", indexed, commits, CommitWindowSize)
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

// TestCommitWindowMatchesReference drives the window's index — open
// addressing with backward-shift deletion — against the obvious model, a
// map plus FIFO eviction, over ID patterns that cluster in the table: the
// consecutive IDs of one node, the interleaved ranges of several, and
// repeats of families still in the window.
func TestCommitWindowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w CommitWindow
	model := map[ids.FamilyID]uint64{}
	var order []ids.FamilyID
	next := [4]uint64{}
	for step := 0; step < 6*CommitWindowSize; step++ {
		var f ids.FamilyID
		switch {
		case len(order) > 0 && rng.Intn(8) == 0:
			f = order[len(order)-1-rng.Intn(min(len(order), 2*CommitWindowSize))] // a recent one, maybe evicted
		default:
			n := rng.Intn(len(next))
			next[n]++
			f = ids.FamilyID(uint64(n+1)<<40 + next[n])
		}
		want, ok := model[f]
		if !ok {
			want = uint64(len(order)) + 1
			model[f] = want
			order = append(order, f)
			if len(order) > CommitWindowSize {
				delete(model, order[len(order)-1-CommitWindowSize])
			}
		}
		if got := w.Assign(f); got != want {
			t.Fatalf("step %d: Assign(%v) = %d, want %d", step, f, got, want)
		}
		if step%512 == 0 {
			for _, g := range order[max(0, len(order)-2*CommitWindowSize):] {
				seq, ok := w.Seq(g)
				if wantSeq, wantOK := model[g]; ok != wantOK || seq != wantSeq {
					t.Fatalf("step %d: Seq(%v) = %d, %v; want %d, %v", step, g, seq, ok, wantSeq, wantOK)
				}
			}
		}
	}
	if len(model) != CommitWindowSize || w.Len() != CommitWindowSize {
		t.Fatalf("model holds %d, window %d", len(model), w.Len())
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
