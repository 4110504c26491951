package gdo

import (
	"bytes"
	"errors"
	"testing"

	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// TestExportRoundTrip: a snapshot imports into a directory that exports the
// same bytes and goes on as the original does, with retention off and on.
func TestExportRoundTrip(t *testing.T) {
	for _, retain := range []bool{false, true} {
		d := newDir(t, 1, 2)
		d.SetRetainGrants(retain)
		for f := ids.FamilyID(1); f <= KeepStreak; f++ { // with retention on the last release keeps
			mustAcquire(t, d, 1, f, 1, o2pl.Write)
			if _, _, _, err := d.ReleaseKeep(f, 1, true, []ObjectRelease{{Obj: 1, Dirty: []ids.PageNum{0}}}); err != nil {
				t.Fatal(err)
			}
		}
		mustAcquire(t, d, 2, 50, 2, o2pl.Read)
		snap := d.Export()
		got, err := Import(snap)
		if err != nil {
			t.Fatalf("retain=%v: import: %v", retain, err)
		}
		if got.RetainGrants() != retain || !bytes.Equal(got.Export(), snap) {
			t.Errorf("retain=%v: export → import → export is not the identity", retain)
		}
		for _, dir := range []*Directory{d, got} {
			if _, _, err := dir.Release(50, 2, true, []ObjectRelease{{Obj: 2}}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got.Export(), d.Export()) {
			t.Errorf("retain=%v: the imported copy diverged from the original", retain)
		}
	}
}

// TestImportRejectsOldSnapshotVersions: versions 2 and 3 carried the commit
// window no directory keeps any more; their layout is not read.
func TestImportRejectsOldSnapshotVersions(t *testing.T) {
	good := newDir(t, 1).Export()
	const versionOff = 4 // after the u32 magic
	for _, v := range []byte{2, 3, 6} {
		bad := bytes.Clone(good)
		bad[versionOff] = v
		if _, err := Import(bad); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("version %d: Import error = %v, want ErrBadSnapshot", v, err)
		}
	}
}
