package pstore

import (
	"bytes"
	"math/rand"
	"testing"

	"lotec/internal/ids"
)

// sharesZero reports whether pid's resident copy is the store's zero
// buffer, and fails the test if the page's shared mark says otherwise.
func sharesZero(t *testing.T, s *Store, pid ids.PageID) bool {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, ok := s.lookupLocked(pid)
	if !ok {
		t.Fatalf("%v not resident", pid)
	}
	same := &pg.data[0] == &s.zero[0]
	if same != pg.shared {
		t.Fatalf("%v: data is the zero buffer %v, shared mark %v", pid, same, pg.shared)
	}
	return same
}

// checkZeroBuffer fails the test if the store's zero buffer, or any page
// sharing it, holds a non-zero byte.
func checkZeroBuffer(t *testing.T, s *Store, obj ids.ObjectID) {
	t.Helper()
	if !bytes.Equal(s.zero, make([]byte, s.pageSize)) {
		t.Fatal("the zero buffer was written")
	}
	for _, p := range s.ResidentPages(obj) {
		pid := ids.PageID{Object: obj, Page: p}
		if !sharesZero(t, s, pid) {
			continue
		}
		got, _, err := s.PageCopy(pid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, s.zero) {
			t.Fatalf("shared page %v reads non-zero bytes", pid)
		}
	}
}

func TestZeroInstallSharesOneBuffer(t *testing.T) {
	s := NewStore(64)
	mustRegister(t, s, 1, 3)
	zero := make([]byte, 64)
	ones := bytes.Repeat([]byte{1}, 64)
	for p, data := range [][]byte{zero, zero, ones} {
		if err := s.InstallPage(ids.PageID{Object: 1, Page: ids.PageNum(p)}, data, 7); err != nil {
			t.Fatal(err)
		}
	}
	for p, want := range []bool{true, true, false} {
		if got := sharesZero(t, s, ids.PageID{Object: 1, Page: ids.PageNum(p)}); got != want {
			t.Errorf("page %d shares the zero buffer: %v, want %v", p, got, want)
		}
	}
	// A non-zero install over a shared page owns it. A zero install over
	// an owned page keeps the buffer, zeroed, and the zero buffer stays
	// untouched.
	if err := s.InstallPage(ids.PageID{Object: 1, Page: 0}, ones, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallPage(ids.PageID{Object: 1, Page: 2}, zero, 8); err != nil {
		t.Fatal(err)
	}
	if sharesZero(t, s, ids.PageID{Object: 1, Page: 0}) || sharesZero(t, s, ids.PageID{Object: 1, Page: 2}) {
		t.Error("a re-install over a page shares the zero buffer")
	}
	if got, err := s.Read(1, 0, 3*64); err != nil || !bytes.Equal(got, append(append(append([]byte(nil), ones...), zero...), zero...)) {
		t.Errorf("pages read %v, %v; want ones, zeros, zeros", got, err)
	}
	checkZeroBuffer(t, s, 1)
}

func TestSharedPageServedAsZeros(t *testing.T) {
	s := NewStore(64)
	mustRegister(t, s, 1, 2)
	pid := ids.PageID{Object: 1, Page: 1}
	if err := s.InstallPage(pid, make([]byte, 64), 5); err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, 64)
	if got, err := s.Read(1, 64, 64); err != nil || !bytes.Equal(got, zero) {
		t.Errorf("Read = %v, %v; want zeros", got, err)
	}
	if got, v, err := s.PageCopy(pid); err != nil || v != 5 || !bytes.Equal(got, zero) {
		t.Errorf("PageCopy = %v, %d, %v; want zeros at 5", got, v, err)
	}
	buf := bytes.Repeat([]byte{9}, 64)
	if v, err := s.PageCopyInto(pid, buf); err != nil || v != 5 || !bytes.Equal(buf, zero) {
		t.Errorf("PageCopyInto = %v, %d, %v; want zeros at 5", buf, v, err)
	}
	if _, _, _, ok := s.DeltaSince(pid, 4, buf); ok {
		t.Error("DeltaSince served a delta from before the install")
	}
	if !sharesZero(t, s, pid) {
		t.Error("serving the page gave it a buffer")
	}
}

// TestEveryWriterOwnsItsPage runs each path that changes a page's bytes on
// a page that shares the zero buffer: each must give the page its own
// bytes and leave the zero buffer, and the page beside it, all zero.
func TestEveryWriterOwnsItsPage(t *testing.T) {
	ones := bytes.Repeat([]byte{1}, 64)
	pid := ids.PageID{Object: 1}
	for _, tc := range []struct {
		name string
		op   func(*Store) error
		want []byte // the page's bytes afterwards
	}{
		{"Write", func(s *Store) error {
			_, err := s.Write(1, 8, []byte{3, 4})
			return err
		}, append(append(make([]byte, 8), 3, 4), make([]byte, 54)...)},
		{"ApplyDelta", func(s *Store) error {
			return s.ApplyDelta(pid, 1, 2, []Span{{Off: 60, Len: 4}}, []byte{5, 6, 7, 8})
		}, append(make([]byte, 60), 5, 6, 7, 8)},
		{"InstallPage", func(s *Store) error {
			return s.InstallPage(pid, ones, 2)
		}, ones},
		{"restore", func(s *Store) error {
			// The page was non-zero when the log shadowed it; dropped and
			// installed again all zero, it shares the zero buffer when
			// the undo restores it.
			if err := s.InstallPage(pid, ones, 2); err != nil {
				return err
			}
			var l UndoLog
			if err := l.SnapshotBefore(s, 1, []ids.PageNum{0}); err != nil {
				return err
			}
			if _, err := s.Write(1, 0, []byte{2}); err != nil {
				return err
			}
			s.Drop(pid)
			if err := s.InstallPage(pid, make([]byte, 64), 3); err != nil {
				return err
			}
			if !sharesZero(t, s, pid) {
				t.Fatal("the zero install did not share")
			}
			l.Undo(s)
			return nil
		}, ones},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(64)
			mustRegister(t, s, 1, 2)
			for p := range 2 {
				if err := s.InstallPage(ids.PageID{Object: 1, Page: ids.PageNum(p)}, make([]byte, 64), 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.op(s); err != nil {
				t.Fatal(err)
			}
			if sharesZero(t, s, pid) {
				t.Errorf("%s left the page on the zero buffer", tc.name)
			}
			if got, err := s.Read(1, 0, 64); err != nil || !bytes.Equal(got, tc.want) {
				t.Errorf("page reads %v, %v; want %v", got, err, tc.want)
			}
			checkZeroBuffer(t, s, 1)
			if !sharesZero(t, s, ids.PageID{Object: 1, Page: 1}) {
				t.Error("the other page lost the zero buffer")
			}
		})
	}
}

// TestZeroSharingRandomSequences drives random mixes of installs, writes,
// deltas and aborted writes against a model of each page's bytes: reads
// always match the model, a page shares the zero buffer exactly when its
// bytes came from all-zero installs into a slot with no buffer of its own,
// and the zero buffer stays zero.
func TestZeroSharingRandomSequences(t *testing.T) {
	const (
		size  = 32
		pages = 4
	)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		s := NewStore(size)
		mustRegister(t, s, 1, pages)
		model := make([][]byte, pages)
		shared := make([]bool, pages)
		version := make([]uint64, pages)
		for p := range model {
			model[p] = make([]byte, size)
			shared[p] = true
			if err := s.InstallPage(ids.PageID{Object: 1, Page: ids.PageNum(p)}, model[p], 1); err != nil {
				t.Fatal(err)
			}
			version[p] = 1
		}
		for step := 0; step < 40; step++ {
			p := rng.Intn(pages)
			pid := ids.PageID{Object: 1, Page: ids.PageNum(p)}
			off, n := rng.Intn(size), 1
			if off < size-1 {
				n += rng.Intn(size - off - 1)
			}
			chunk := make([]byte, n)
			for i := range chunk {
				chunk[i] = byte(1 + rng.Intn(255))
			}
			switch rng.Intn(6) {
			case 0: // zero install
				version[p]++
				clear(model[p])
				if err := s.InstallPage(pid, make([]byte, size), version[p]); err != nil {
					t.Fatal(err)
				}
			case 1: // non-zero install
				version[p]++
				copy(model[p][off:], chunk)
				if err := s.InstallPage(pid, model[p], version[p]); err != nil {
					t.Fatal(err)
				}
				shared[p] = false
			case 5: // eviction, and a zero install into the empty slot
				s.Drop(pid)
				version[p]++
				clear(model[p])
				if err := s.InstallPage(pid, make([]byte, size), version[p]); err != nil {
					t.Fatal(err)
				}
				shared[p] = true
			case 2: // committed write
				if _, err := s.Write(1, p*size+off, chunk); err != nil {
					t.Fatal(err)
				}
				version[p]++
				if err := s.SetPageVersion(pid, version[p]); err != nil {
					t.Fatal(err)
				}
				s.ClearDirty(1, []ids.PageNum{ids.PageNum(p)})
				copy(model[p][off:], chunk)
				shared[p] = false
			case 3: // delta
				if err := s.ApplyDelta(pid, version[p], version[p]+1, []Span{{Off: off, Len: n}}, chunk); err != nil {
					t.Fatal(err)
				}
				version[p]++
				copy(model[p][off:], chunk)
				shared[p] = false
			case 4: // aborted write
				var l UndoLog
				if err := l.SnapshotBefore(s, 1, []ids.PageNum{ids.PageNum(p)}); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Write(1, p*size+off, chunk); err != nil {
					t.Fatal(err)
				}
				l.Undo(s)
				shared[p] = false
			}
			checkZeroBuffer(t, s, 1)
			for q := range pages {
				qid := ids.PageID{Object: 1, Page: ids.PageNum(q)}
				if got, err := s.Read(1, q*size, size); err != nil || !bytes.Equal(got, model[q]) {
					t.Fatalf("round %d step %d: page %d reads %v, %v; want %v", round, step, q, got, err, model[q])
				}
				if got := sharesZero(t, s, qid); got != shared[q] {
					t.Fatalf("round %d step %d: page %d shares %v, want %v", round, step, q, got, shared[q])
				}
			}
		}
	}
}
