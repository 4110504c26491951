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
//
// Even seeds start from a page its owner created (Create): it journals
// nothing until it is served, at a random point — between rounds by
// PageCopyInto, or in the middle of a round's writes by a DeltaSince that
// must refuse — and a requester can hold only the versions from that serve
// on. Each of those must patch forward exactly as on a page that journaled
// from birth.
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
		home := seed%2 == 0
		if home {
			if err := src.Create(obj, 1); err != nil {
				t.Fatal(err)
			}
		} else if err := src.InstallPage(pid, make([]byte, pageSize), 1); err != nil {
			t.Fatal(err)
		}

		// images[v] is the committed page content at version v, for every v
		// a requester can hold: from birth, or from the first serve of a
		// home-only page on. Reading the page does not serve it.
		images := map[uint64][]byte{}
		current := func() ([]byte, uint64) {
			data, err := src.Read(obj, 0, pageSize)
			if err != nil {
				t.Fatal(err)
			}
			v, _ := src.PageVersion(pid)
			return data, v
		}
		journaling := !home
		if journaling {
			img, v := current()
			images[v] = img
		}

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
			if !journaling && rng.Intn(6) == 0 { // first serve, between rounds
				buf := make([]byte, pageSize)
				v, err := src.PageCopyInto(pid, buf)
				if err != nil {
					t.Fatal(err)
				}
				images[v] = buf
				journaling = true
			}
			beforeEpochs := len(src.JournalEpochs(pid))
			before, ver := current()

			// One root with a child sub-transaction: the child either aborts
			// (its writes undone immediately) or pre-commits (its log merges
			// into the root's); then the root aborts or commits.
			root := NewUndoLog()
			writeSome(root)
			if !journaling && rng.Intn(6) == 0 { // first serve, mid-epoch
				if _, _, _, ok := src.DeltaSince(pid, ver, make([]byte, pageSize)); ok {
					t.Fatalf("seed %d round %d: dirty home-only page served a delta", seed, round)
				}
				journaling = true
			}
			child := NewUndoLog()
			writeSome(child)
			if rng.Intn(2) == 0 {
				child.Undo(src)
			} else {
				child.MergeInto(root)
			}

			if rng.Intn(3) == 0 { // root abort
				root.Undo(src)
				after, v2 := current()
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
			if !journaling {
				if got := src.JournalEpochs(pid); len(got) != 0 {
					t.Fatalf("seed %d round %d: home-only page journaled %v", seed, round, got)
				}
				continue
			}
			now, cur := current()
			images[cur] = now

			// Every image a requester can hold either patches forward to the
			// current bytes, or the journal honestly refuses (fallback).
			for base, img := range images {
				if base >= cur {
					continue
				}
				buf := make([]byte, pageSize)
				runs, target, n, ok := src.DeltaSince(pid, base, buf)
				if !ok {
					continue
				}
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
				if v2 != cur || !bytes.Equal(got, now) {
					t.Fatalf("seed %d round %d: delta from v%d not byte-identical to full page", seed, round, base)
				}
			}
			// The epoch just sealed must always be servable: the commit wrote
			// at least one byte, the page was no longer home-only when it
			// sealed, and the ring holds >= 1 epoch.
			buf := make([]byte, pageSize)
			if _, _, _, ok := src.DeltaSince(pid, cur-1, buf); !ok {
				t.Fatalf("seed %d round %d: newest epoch v%d→v%d unservable", seed, round, cur-1, cur)
			}
		}
	}
}

// commitWrite writes one byte at off of a one-page object, seals the page
// at version v and cleans it, as a root commit does.
func commitWrite(t *testing.T, s *Store, obj ids.ObjectID, off int, v uint64) {
	t.Helper()
	if _, err := s.Write(obj, off, []byte{byte(v)}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPageVersion(ids.PageID{Object: obj}, v); err != nil {
		t.Fatal(err)
	}
	s.ClearDirty(obj, []ids.PageNum{0})
}

// TestHomePageKeepsNoJournal: a page its owner created and never served
// records no epoch however often it commits, and its writes reuse one open
// epoch's storage.
func TestHomePageKeepsNoJournal(t *testing.T) {
	const pageSize = 64
	pid := ids.PageID{Object: 1}
	s := NewStore(pageSize)
	if err := s.Register(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(1, 1); err != nil {
		t.Fatal(err)
	}
	for v := uint64(2); v <= 101; v++ {
		commitWrite(t, s, 1, int(v)%pageSize, v)
	}
	if got := s.JournalEpochs(pid); len(got) != 0 {
		t.Fatalf("home-only page sealed 100 times holds epochs %v", got)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, _ := s.lookupLocked(pid)
	if len(pg.pending) != 0 || cap(pg.pending) != 1 {
		t.Errorf("open epoch has len %d cap %d after 100 one-span commits, want 0 and 1", len(pg.pending), cap(pg.pending))
	}
}

// TestHomePageJournalsOnceServed: the first serve — a full copy or a delta
// request — ends a page's home-only state; the seals after it journal, and
// a requester holding the served version catches up by delta exactly.
func TestHomePageJournalsOnceServed(t *testing.T) {
	const pageSize = 64
	const obj = ids.ObjectID(2)
	pid := ids.PageID{Object: obj}
	for _, tc := range []struct {
		name  string
		serve func(s *Store, buf []byte) uint64 // copies the page to buf, returns its version
	}{
		{"PageCopyInto", func(s *Store, buf []byte) uint64 {
			v, err := s.PageCopyInto(pid, buf)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}},
		{"DeltaSince", func(s *Store, buf []byte) uint64 {
			// A requester at v1 asks for a delta; the page journaled
			// nothing, so it is refused and the full page goes instead.
			if _, _, _, ok := s.DeltaSince(pid, 1, buf); ok {
				t.Fatal("home-only page served a delta")
			}
			data, err := s.Read(obj, 0, pageSize)
			if err != nil {
				t.Fatal(err)
			}
			copy(buf, data)
			v, _ := s.PageVersion(pid)
			return v
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(pageSize)
			if err := s.Register(obj, 1); err != nil {
				t.Fatal(err)
			}
			if err := s.Create(obj, 1); err != nil {
				t.Fatal(err)
			}
			for v := uint64(2); v <= 4; v++ {
				commitWrite(t, s, obj, int(v), v)
			}
			copyAt := make([]byte, pageSize)
			served := tc.serve(s, copyAt)
			for v := served + 1; v <= served+3; v++ {
				commitWrite(t, s, obj, 10*int(v)%pageSize, v)
			}
			if got := s.JournalEpochs(pid); len(got) != 3 || got[0] != [2]uint64{served, served + 1} {
				t.Fatalf("seals after the serve journaled %v, want 3 epochs from v%d", got, served)
			}
			buf := make([]byte, pageSize)
			runs, target, n, ok := s.DeltaSince(pid, served, buf)
			if !ok {
				t.Fatalf("no delta from the served version v%d", served)
			}
			dst := NewStore(pageSize)
			if err := dst.Register(obj, 1); err != nil {
				t.Fatal(err)
			}
			if err := dst.InstallPage(pid, copyAt, served); err != nil {
				t.Fatal(err)
			}
			if err := dst.ApplyDelta(pid, served, target, runs, buf[:n]); err != nil {
				t.Fatal(err)
			}
			want, _ := s.Read(obj, 0, pageSize)
			got, _ := dst.Read(obj, 0, pageSize)
			if !bytes.Equal(got, want) {
				t.Fatal("delta from the served version is not byte-identical to the page")
			}
		})
	}
}

// TestOtherPagesJournalFromBirth: only Create makes a page home-only. A page
// installed from another site, a materialized one, and a created one that a
// page or a delta from elsewhere overwrote all journal their first seal.
func TestOtherPagesJournalFromBirth(t *testing.T) {
	const pageSize = 64
	pid := ids.PageID{Object: 1}
	for _, tc := range []struct {
		name string
		make func(s *Store) uint64 // makes the page resident, returns its version
	}{
		{"InstallPage", func(s *Store) uint64 {
			if err := s.InstallPage(pid, make([]byte, pageSize), 1); err != nil {
				t.Fatal(err)
			}
			return 1
		}},
		{"Materialize", func(s *Store) uint64 {
			if err := s.Materialize(1); err != nil {
				t.Fatal(err)
			}
			return 0
		}},
		{"Create then InstallPage", func(s *Store) uint64 {
			if err := s.Create(1, 1); err != nil {
				t.Fatal(err)
			}
			if err := s.InstallPage(pid, make([]byte, pageSize), 3); err != nil {
				t.Fatal(err)
			}
			return 3
		}},
		{"Create then ApplyDelta", func(s *Store) uint64 {
			if err := s.Create(1, 1); err != nil {
				t.Fatal(err)
			}
			if err := s.ApplyDelta(pid, 1, 2, []Span{{Off: 0, Len: 1}}, []byte{9}); err != nil {
				t.Fatal(err)
			}
			return 2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(pageSize)
			if err := s.Register(1, 1); err != nil {
				t.Fatal(err)
			}
			v := tc.make(s)
			before := len(s.JournalEpochs(pid))
			commitWrite(t, s, 1, 5, v+1)
			if got := s.JournalEpochs(pid); len(got) != before+1 || got[len(got)-1] != [2]uint64{v, v + 1} {
				t.Fatalf("first seal journaled %v, want epoch v%d→v%d appended", got, v, v+1)
			}
		})
	}
}

// TestDeltaJournalDepthEviction pins the bounded-ring fallback: bases that
// fell off the journal (or predate it) are refused — the wire layer then
// ships a full page — while bases still inside the ring keep serving.
func TestDeltaJournalDepthEviction(t *testing.T) {
	const pageSize = 128
	const obj = ids.ObjectID(3)
	const depth = DefaultDeltaJournalDepth
	const last = depth + 5 // the page's final version: four bases evicted
	pid := ids.PageID{Object: obj, Page: 0}
	s := NewStore(pageSize)
	if err := s.Register(obj, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallPage(pid, make([]byte, pageSize), 1); err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v < last; v++ {
		if _, err := s.Write(obj, int(v)%pageSize, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetPageVersion(pid, v+1); err != nil {
			t.Fatal(err)
		}
		s.ClearDirty(obj, []ids.PageNum{0})
	}
	// The ring holds the newest depth epochs, last-depth → … → last.
	buf := make([]byte, pageSize)
	for base := uint64(1); base < last-depth; base++ {
		if _, _, _, ok := s.DeltaSince(pid, base, buf); ok {
			t.Errorf("base v%d served after eviction (depth %d, page v%d)", base, depth, last)
		}
	}
	for base := uint64(last - depth); base < last; base++ {
		runs, target, _, ok := s.DeltaSince(pid, base, buf)
		if !ok || target != last || len(runs) == 0 {
			t.Errorf("base v%d inside ring unservable (ok=%v target=%d)", base, ok, target)
		}
	}
	if got := s.JournalEpochs(pid); len(got) != depth {
		t.Errorf("ring holds %d epochs, want %d", len(got), depth)
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

// TestIntervalSetInsertMatchesByteMask checks the in-place insert against a
// byte mask: after every insert the set is sorted, coalesced (no two spans
// overlap or touch) and covers exactly the bytes inserted so far.
func TestIntervalSetInsertMatchesByteMask(t *testing.T) {
	const size = 200
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var set intervalSet
		var mask [size]bool
		for i := 0; i < 1+rng.Intn(20); i++ {
			off := rng.Intn(size)
			n := rng.Intn(1 + min(size-off, 30))
			set = set.insert(off, n)
			for b := off; b < off+n; b++ {
				mask[b] = true
			}
			var got [size]bool
			end := -1
			for k, sp := range set {
				if sp.Len <= 0 || sp.Off <= end {
					t.Fatalf("trial %d: span %d %v not after the previous one (ending %d) with a gap: %v", trial, k, sp, end, set)
				}
				end = sp.Off + sp.Len
				for b := sp.Off; b < end; b++ {
					got[b] = true
				}
			}
			if got != mask {
				t.Fatalf("trial %d: set %v does not cover exactly the inserted bytes", trial, set)
			}
		}
	}
}
