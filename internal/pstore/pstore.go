// Package pstore implements the per-site paged object memory that the LOTEC
// DSM is built on: fixed-size pages addressed per object, partial caching
// (only some pages of an object may be resident at a site, since "the
// up-to-date parts of an object may be scattered throughout the distributed
// system" — §4.1 of the paper), per-page version tracking used by the OTEC
// and LOTEC protocols to decide which pages are stale, dirty-page tracking
// that is piggybacked on global lock releases, and shadow-page UNDO logs for
// transaction aborts (§4.1: "UNDO operations … may be done using either
// local UNDO logs or shadow pages").
//
// Because pages are addressed as ⟨object, page-number⟩ rather than as raw
// memory addresses, two objects can never share a page: false sharing is
// structurally impossible, exactly as §4.2 of the paper argues, and no
// twinning/diffing machinery is needed.
package pstore

import (
	"errors"
	"fmt"
	"sync"

	"lotec/internal/ids"
)

// DefaultPageSize is the page size used when a Store is created with size 0.
// It matches the 4 KiB virtual-memory page of the machines the paper targets.
const DefaultPageSize = 4096

// ErrObjectUnknown is returned for operations on an unregistered object.
var ErrObjectUnknown = errors.New("pstore: object not registered")

// ErrObjectExists is returned when registering an object twice with a
// conflicting shape.
var ErrObjectExists = errors.New("pstore: object already registered with different shape")

// PageMissingError reports an access to a page that is not cached locally.
// The node runtime treats it as a demand-fetch trigger (§4.3: "If additional
// parts turn out to be needed, these can be fetched on demand").
type PageMissingError struct {
	PID ids.PageID
}

// Error implements error.
func (e *PageMissingError) Error() string {
	return fmt.Sprintf("pstore: page %v not resident", e.PID)
}

// BoundsError reports a read or write outside an object's extent.
type BoundsError struct {
	Object ids.ObjectID
	Offset int
	Length int
	Size   int
}

// Error implements error.
func (e *BoundsError) Error() string {
	return fmt.Sprintf("pstore: access [%d,%d) outside %v (size %d)",
		e.Offset, e.Offset+e.Length, e.Object, e.Size)
}

// page is one resident page of one object.
type page struct {
	data    []byte
	version uint64 // version of the copy held here (assigned by the GDO)
	dirty   bool   // modified locally since last global release

	// pending is the open epoch of the dirty-range journal: the byte
	// intervals written since this copy last changed version. Sealed into
	// hist by SetPageVersion, rolled back exactly by undo.
	pending intervalSet
	// hist is the bounded ring of sealed epochs, oldest first. Each entry
	// records the ranges that changed across one version transition, so a
	// holder can answer "what changed since version V" for recent V.
	hist []epoch
}

// objectMem is the per-object residency record at one site.
type objectMem struct {
	numPages int
	pages    map[ids.PageNum]*page
}

// Store is the paged object memory of a single site. A Store is safe for
// concurrent use.
type Store struct {
	mu           sync.Mutex
	pageSize     int                         // immutable after NewStore
	objects      map[ids.ObjectID]*objectMem // guarded by mu
	journalDepth int                         // guarded by mu; 0 means DefaultDeltaJournalDepth
}

// NewStore returns an empty Store with the given page size (bytes).
// A pageSize of 0 selects DefaultPageSize.
func NewStore(pageSize int) *Store {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Store{
		pageSize: pageSize,
		objects:  make(map[ids.ObjectID]*objectMem),
	}
}

// PageSize returns the store's page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// Register makes an object of numPages pages known to this site without
// materializing any pages. Registering the same shape twice is a no-op.
func (s *Store) Register(obj ids.ObjectID, numPages int) error {
	if numPages <= 0 {
		return fmt.Errorf("pstore: register %v: numPages %d must be positive", obj, numPages)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if om, ok := s.objects[obj]; ok {
		if om.numPages != numPages {
			return fmt.Errorf("%w: %v has %d pages, requested %d",
				ErrObjectExists, obj, om.numPages, numPages)
		}
		return nil
	}
	s.objects[obj] = &objectMem{
		numPages: numPages,
		pages:    make(map[ids.PageNum]*page, numPages),
	}
	return nil
}

// Materialize makes every page of obj resident and zero-filled at version 0.
// It is used at the object's home site when the object is created. Pages
// that are already resident are left untouched.
func (s *Store) Materialize(obj ids.ObjectID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	om, ok := s.objects[obj]
	if !ok {
		return fmt.Errorf("%w: %v", ErrObjectUnknown, obj)
	}
	for p := ids.PageNum(0); int(p) < om.numPages; p++ {
		if _, ok := om.pages[p]; !ok {
			om.pages[p] = &page{data: make([]byte, s.pageSize)}
		}
	}
	return nil
}

// NumPages reports the registered extent of obj in pages.
func (s *Store) NumPages(obj ids.ObjectID) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	om, ok := s.objects[obj]
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrObjectUnknown, obj)
	}
	return om.numPages, nil
}

// Size reports the object's extent in bytes.
func (s *Store) Size(obj ids.ObjectID) (int, error) {
	n, err := s.NumPages(obj)
	if err != nil {
		return 0, err
	}
	return n * s.pageSize, nil
}

// HasPage reports whether the page is resident at this site.
//
//lotec:noalloc
func (s *Store) HasPage(pid ids.PageID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.lookupLocked(pid)
	return ok
}

// PageVersion returns the version of the locally resident copy of pid, or
// ok=false if the page is not resident.
//
//lotec:noalloc
func (s *Store) PageVersion(pid ids.PageID) (version uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, ok := s.lookupLocked(pid)
	if !ok {
		return 0, false
	}
	return pg.version, true
}

// lookupLocked returns the resident page, if any. Caller holds s.mu.
//
//lotec:noalloc
func (s *Store) lookupLocked(pid ids.PageID) (*page, bool) {
	om, ok := s.objects[pid.Object]
	if !ok || int(pid.Page) < 0 || int(pid.Page) >= om.numPages {
		return nil, false
	}
	pg, ok := om.pages[pid.Page]
	return pg, ok
}

// InstallPage installs a page copy received from another site (or created
// locally), overwriting any prior resident copy. The data is copied. The
// installed page starts clean, with an empty journal. A resident page is
// overwritten in place: its buffer never leaves s.mu (every reader copies
// out), so reusing it is indistinguishable from installing a fresh one.
func (s *Store) InstallPage(pid ids.PageID, data []byte, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	om, ok := s.objects[pid.Object]
	if !ok {
		return fmt.Errorf("%w: %v", ErrObjectUnknown, pid.Object)
	}
	if int(pid.Page) < 0 || int(pid.Page) >= om.numPages {
		return fmt.Errorf("pstore: install %v: page out of range (object has %d pages)", pid, om.numPages)
	}
	if len(data) != s.pageSize {
		return fmt.Errorf("pstore: install %v: got %d bytes, page size is %d", pid, len(data), s.pageSize)
	}
	if pg, ok := om.pages[pid.Page]; ok {
		copy(pg.data, data)
		*pg = page{data: pg.data, version: version}
		return nil
	}
	buf := make([]byte, s.pageSize)
	copy(buf, data)
	om.pages[pid.Page] = &page{data: buf, version: version}
	return nil
}

// PageCopy returns a copy of the resident page's bytes and its version, for
// transmission to another site.
func (s *Store) PageCopy(pid ids.PageID) (data []byte, version uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, ok := s.lookupLocked(pid)
	if !ok {
		return nil, 0, &PageMissingError{PID: pid}
	}
	out := make([]byte, len(pg.data))
	copy(out, pg.data)
	return out, pg.version, nil
}

// PageCopyInto copies the resident page's bytes into buf (which must be at
// least PageSize long) and returns its version. It is the allocation-free
// variant of PageCopy used by the xfer pipeline's pooled staging buffers.
//
//lotec:noalloc
func (s *Store) PageCopyInto(pid ids.PageID, buf []byte) (version uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, ok := s.lookupLocked(pid)
	if !ok {
		return 0, &PageMissingError{PID: pid}
	}
	if len(buf) < len(pg.data) {
		return 0, fmt.Errorf("pstore: copy %v: buffer %d bytes, page is %d", pid, len(buf), len(pg.data))
	}
	copy(buf, pg.data)
	return pg.version, nil
}

// SetPageVersion updates the version stamp of a resident page. The GDO
// assigns new versions at root commit; the committing site restamps its own
// dirty pages with them.
func (s *Store) SetPageVersion(pid ids.PageID, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, ok := s.lookupLocked(pid)
	if !ok {
		return &PageMissingError{PID: pid}
	}
	old := pg.version
	pg.version = version
	s.sealLocked(pg, old, version)
	return nil
}

// Read copies n bytes starting at byte offset off of obj into a fresh slice.
// The read may span pages. If any covered page is not resident, Read returns
// a *PageMissingError naming the first missing page and no data.
func (s *Store) Read(obj ids.ObjectID, off, n int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	om, ok := s.objects[obj]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrObjectUnknown, obj)
	}
	if err := s.checkBounds(om, obj, off, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	for done := 0; done < n; {
		pnum := ids.PageNum((off + done) / s.pageSize)
		poff := (off + done) % s.pageSize
		pg, ok := om.pages[pnum]
		if !ok {
			return nil, &PageMissingError{PID: ids.PageID{Object: obj, Page: pnum}}
		}
		c := copy(out[done:], pg.data[poff:])
		done += c
	}
	return out, nil
}

// Write copies data into obj at byte offset off, marking every touched page
// dirty, and returns the set of touched page numbers. If any covered page is
// not resident the write fails with *PageMissingError before modifying
// anything.
func (s *Store) Write(obj ids.ObjectID, off int, data []byte) ([]ids.PageNum, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	om, ok := s.objects[obj]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrObjectUnknown, obj)
	}
	if err := s.checkBounds(om, obj, off, len(data)); err != nil {
		return nil, err
	}
	first := ids.PageNum(off / s.pageSize)
	last := ids.PageNum((off + len(data) - 1) / s.pageSize)
	if len(data) == 0 {
		return nil, nil
	}
	for p := first; p <= last; p++ {
		if _, ok := om.pages[p]; !ok {
			return nil, &PageMissingError{PID: ids.PageID{Object: obj, Page: p}}
		}
	}
	touched := make([]ids.PageNum, 0, last-first+1)
	for done := 0; done < len(data); {
		pnum := ids.PageNum((off + done) / s.pageSize)
		poff := (off + done) % s.pageSize
		pg := om.pages[pnum]
		c := copy(pg.data[poff:], data[done:])
		done += c
		pg.dirty = true
		pg.pending = pg.pending.insert(poff, c)
		touched = append(touched, pnum)
	}
	return touched, nil
}

// checkBounds validates [off, off+n) against the object extent. Caller holds
// s.mu.
//
//lotec:noalloc
func (s *Store) checkBounds(om *objectMem, obj ids.ObjectID, off, n int) error {
	size := om.numPages * s.pageSize
	if off < 0 || n < 0 || off+n > size {
		return &BoundsError{Object: obj, Offset: off, Length: n, Size: size}
	}
	return nil
}

// DirtyPages returns the page numbers of obj that have been modified locally
// since the last ClearDirty, in ascending order.
//
//lotec:noalloc
func (s *Store) DirtyPages(obj ids.ObjectID) []ids.PageNum {
	s.mu.Lock()
	defer s.mu.Unlock()
	om, ok := s.objects[obj]
	if !ok {
		return nil
	}
	var out []ids.PageNum
	for p := ids.PageNum(0); int(p) < om.numPages; p++ {
		if pg, ok := om.pages[p]; ok && pg.dirty {
			out = append(out, p)
		}
	}
	return out
}

// ClearDirty clears the dirty flag on the given pages of obj (used after the
// dirty-page info has been piggybacked on a global lock release).
func (s *Store) ClearDirty(obj ids.ObjectID, pages []ids.PageNum) {
	s.mu.Lock()
	defer s.mu.Unlock()
	om, ok := s.objects[obj]
	if !ok {
		return
	}
	for _, p := range pages {
		if pg, ok := om.pages[p]; ok {
			pg.dirty = false
			if len(pg.pending) > 0 {
				// Dirty ranges discarded without a version seal: the bytes
				// now differ from what any journal chain describes, so the
				// ring must not serve deltas from here.
				pg.pending = nil
				pg.hist = nil
			}
		}
	}
}

// ResidentPages returns the page numbers of obj currently resident at this
// site, in ascending order.
func (s *Store) ResidentPages(obj ids.ObjectID) []ids.PageNum {
	s.mu.Lock()
	defer s.mu.Unlock()
	om, ok := s.objects[obj]
	if !ok {
		return nil
	}
	var out []ids.PageNum
	for p := ids.PageNum(0); int(p) < om.numPages; p++ {
		if _, ok := om.pages[p]; ok {
			out = append(out, p)
		}
	}
	return out
}

// Objects returns the IDs of all registered objects, in unspecified order.
func (s *Store) Objects() []ids.ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ids.ObjectID, 0, len(s.objects))
	for o := range s.objects {
		out = append(out, o)
	}
	return out
}

// snapshotLocked returns a copy of the page's bytes, dirty flag, and open
// journal epoch for undo. Caller holds s.mu.
func (pg *page) snapshotLocked() ([]byte, bool, intervalSet) {
	buf := make([]byte, len(pg.data))
	copy(buf, pg.data)
	return buf, pg.dirty, pg.pending.clone()
}

// restore overwrites the page from an undo record, including the open
// journal epoch — an aborted transaction's dirty ranges must vanish exactly,
// or a later seal would describe changes the commit never made. Caller holds
// s.mu.
func (pg *page) restore(data []byte, dirty bool, pending intervalSet) {
	copy(pg.data, data)
	pg.dirty = dirty
	pg.pending = pending.clone()
}
