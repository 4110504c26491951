package pstore

import (
	"fmt"

	"lotec/internal/ids"
)

// DefaultDeltaJournalDepth is how many sealed version epochs a page's
// dirty-range journal retains. A holder can serve "what changed since
// version V" only while V's epoch is still in the ring; older bases fall
// back to full-page transfers.
const DefaultDeltaJournalDepth = 8

// ErrDeltaBase reports that a delta could not be applied because the
// resident copy is not at the delta's base version (or is locally dirty).
// Callers treat it as a fallback trigger, not a failure: fetch paths skip
// newer-or-equal copies before applying, and push paths evict the stale
// copy so a later access re-fetches the full page.
var ErrDeltaBase = fmt.Errorf("pstore: resident page does not match delta base")

// Span is one dirty byte range [Off, Off+Len) within a page.
type Span struct {
	Off int
	Len int
}

// intervalSet is a sorted, coalesced set of non-overlapping spans.
type intervalSet []Span

// insert adds [off, off+n) and re-coalesces, in place: the set's backing
// array is reused and grows only when a span that absorbs nothing does not
// fit. Adjacent spans merge: the journal describes which bytes changed, so
// touching [0,4) and [4,8) is exactly the span [0,8).
func (s intervalSet) insert(off, n int) intervalSet {
	if n <= 0 {
		return s
	}
	start, end := off, off+n
	// s[i:j] are the spans [start, end) overlaps or touches.
	i := 0
	for i < len(s) && s[i].Off+s[i].Len < start {
		i++
	}
	j := i
	for ; j < len(s) && s[j].Off <= end; j++ {
		start = min(start, s[j].Off)
		end = max(end, s[j].Off+s[j].Len)
	}
	if i == j { // absorbs nothing: open a slot at i
		if len(s) == cap(s) {
			grown := make(intervalSet, len(s), 2*len(s)+1) // growth; the set keeps the capacity
			copy(grown, s)
			s = grown
		}
		s = s[:len(s)+1]
		copy(s[i+1:], s[i:])
	} else { // s[i] becomes the merged span; close the gap behind it
		s = s[:i+1+copy(s[i+1:], s[j:])]
	}
	s[i] = Span{Off: start, Len: end - start}
	return s
}

// union merges another set into this one.
func (s intervalSet) union(o intervalSet) intervalSet {
	for _, sp := range o {
		s = s.insert(sp.Off, sp.Len)
	}
	return s
}

// clone returns an independent copy.
func (s intervalSet) clone() intervalSet {
	if s == nil {
		return nil
	}
	return append(intervalSet(nil), s...)
}

// total is the covered byte count.
func (s intervalSet) total() int {
	n := 0
	for _, sp := range s {
		n += sp.Len
	}
	return n
}

// epoch is one sealed journal entry: the byte ranges that changed when the
// page went from version base to version target.
type epoch struct {
	base   uint64
	target uint64
	runs   intervalSet
}

// sealLocked moves the page's open-epoch dirty ranges into the sealed ring
// as the transition old→now. A version change with no recorded writes means
// the bytes changed through a path the journal did not observe, so the whole
// ring is invalidated rather than risk serving a delta that misses bytes. A
// home-only page records nothing — no site holds a version to patch — and
// keeps its open epoch's storage for the next one. Caller holds s.mu.
func (s *Store) sealLocked(pg *page, old, now uint64) {
	switch {
	case now == old: // no transition to record
	case pg.homeOnly:
		pg.pending = pg.pending[:0]
	case len(pg.pending) == 0:
		pg.hist = nil
	default:
		free := s.makeRoomLocked(pg)
		pg.hist = append(pg.hist, epoch{base: old, target: now, runs: pg.pending})
		pg.pending = free
	}
}

// makeRoomLocked readies the page's sealed ring for one more epoch,
// evicting the oldest one when it is at its depth, and returns the emptied
// run storage of an evicted epoch for reuse (nil if none was evicted).
// Evicting before appending keeps the ring's slice at the depth; appending
// first let it grow to the next capacity up — twice the ring, kept for good
// by every page written often enough to fill it. Caller holds s.mu.
func (s *Store) makeRoomLocked(pg *page) intervalSet {
	if len(pg.hist) < DefaultDeltaJournalDepth {
		return nil
	}
	free := pg.hist[0].runs[:0]
	pg.hist = append(pg.hist[:0], pg.hist[1:]...)
	return free
}

// checkRuns validates a delta's shape: runs sorted, non-overlapping, each
// non-empty, all within the page, and together exactly covering data.
func (s *Store) checkRuns(runs []Span, data []byte) error {
	prevEnd, sum := 0, 0
	for i, r := range runs {
		if r.Len <= 0 || r.Off < 0 || r.Off+r.Len > s.pageSize {
			return fmt.Errorf("pstore: delta run %d [%d,%d) outside page of %d bytes", i, r.Off, r.Off+r.Len, s.pageSize)
		}
		if r.Off < prevEnd {
			return fmt.Errorf("pstore: delta runs unsorted or overlapping at index %d", i)
		}
		prevEnd = r.Off + r.Len
		sum += r.Len
	}
	if sum != len(data) {
		return fmt.Errorf("pstore: delta runs cover %d bytes, payload has %d", sum, len(data))
	}
	return nil
}

// ApplyDelta patches a resident page in place from base to target: each run
// takes its bytes from data in order. The page must be clean and at exactly
// the base version; otherwise ErrDeltaBase is returned and the page is
// untouched. A successful apply records the epoch in the receiver's own
// journal, so a site that caught up via a delta can serve deltas onward;
// the page is no longer home-only.
func (s *Store) ApplyDelta(pid ids.PageID, base, target uint64, runs []Span, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, ok := s.lookupLocked(pid)
	if !ok {
		return &PageMissingError{PID: pid}
	}
	if target <= base {
		return fmt.Errorf("pstore: delta %v has no version progress (%d→%d)", pid, base, target)
	}
	if err := s.checkRuns(runs, data); err != nil {
		return err
	}
	if pg.dirty || len(pg.pending) > 0 || pg.version != base {
		return fmt.Errorf("%w: %v at version %d (dirty=%v), delta base %d", ErrDeltaBase, pid, pg.version, pg.dirty, base)
	}
	pg.own()
	done := 0
	for _, r := range runs {
		copy(pg.data[r.Off:r.Off+r.Len], data[done:done+r.Len])
		done += r.Len
	}
	pg.version = target
	pg.homeOnly = false
	free := s.makeRoomLocked(pg)
	pg.hist = append(pg.hist, epoch{base: base, target: target, runs: append(free, runs...)})
	return nil
}

// DeltaSince reports what changed on pid between version base and the
// resident copy, if the journal still covers that range. The merged runs'
// current bytes are concatenated into buf (which must hold PageSize bytes).
// ok=false means the caller must fall back to a full-page transfer: the page
// is missing, locally dirty (its bytes are not yet any committed version),
// the base epoch was evicted from the bounded ring, or the chain is not
// contiguous up to the current version. A requester holds some version of
// the page, so the page is no longer home-only.
func (s *Store) DeltaSince(pid ids.PageID, base uint64, buf []byte) (runs []Span, target uint64, n int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, found := s.lookupLocked(pid)
	if !found {
		return nil, 0, 0, false
	}
	pg.homeOnly = false
	if pg.dirty || len(pg.pending) > 0 || base >= pg.version {
		return nil, 0, 0, false
	}
	start := -1
	for i, e := range pg.hist {
		if e.base == base {
			start = i
			break
		}
	}
	if start < 0 {
		return nil, 0, 0, false
	}
	var merged intervalSet
	at := base
	for _, e := range pg.hist[start:] {
		if e.base != at {
			return nil, 0, 0, false
		}
		merged = merged.union(e.runs)
		at = e.target
	}
	if at != pg.version {
		return nil, 0, 0, false
	}
	if merged.total() > len(buf) {
		return nil, 0, 0, false
	}
	done := 0
	for _, r := range merged {
		copy(buf[done:done+r.Len], pg.data[r.Off:r.Off+r.Len])
		done += r.Len
	}
	return merged, pg.version, done, true
}

// Drop evicts a resident page. The push path uses it when a pushed delta
// cannot be applied to the local copy (wrong base): evicting converts
// potential staleness into a future full-page fetch, which is always
// correct. Dropping a non-resident page is a no-op.
func (s *Store) Drop(pid ids.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if om, ok := s.objects[pid.Object]; ok && om.page(pid.Page) != nil {
		om.pages[pid.Page] = nil
	}
}

// JournalEpochs reports the sealed (base, target) transitions currently
// retained for pid, oldest first (tests and diagnostics).
func (s *Store) JournalEpochs(pid ids.PageID) [][2]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, ok := s.lookupLocked(pid)
	if !ok {
		return nil
	}
	out := make([][2]uint64, 0, len(pg.hist))
	for _, e := range pg.hist {
		out = append(out, [2]uint64{e.base, e.target})
	}
	return out
}
