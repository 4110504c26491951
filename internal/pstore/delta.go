package pstore

import (
	"fmt"

	"lotec/internal/ids"
)

// DefaultDeltaJournalDepth is how many sealed version epochs a page's
// dirty-range journal retains when the store is not configured otherwise.
// A holder can serve "what changed since version V" only while V's epoch is
// still in the ring; older bases fall back to full-page transfers.
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

// insert adds [off, off+n) and re-coalesces. Adjacent spans merge: the
// journal describes which bytes changed, so touching [0,4) and [4,8) is
// exactly the span [0,8).
func (s intervalSet) insert(off, n int) intervalSet {
	if n <= 0 {
		return s
	}
	out := make(intervalSet, 0, len(s)+1)
	start, end := off, off+n
	placed := false
	for _, sp := range s {
		switch {
		case sp.Off+sp.Len < start: // strictly before, not adjacent
			out = append(out, sp)
		case sp.Off > end: // strictly after, not adjacent
			if !placed {
				out = append(out, Span{Off: start, Len: end - start})
				placed = true
			}
			out = append(out, sp)
		default: // overlaps or touches: absorb
			if sp.Off < start {
				start = sp.Off
			}
			if sp.Off+sp.Len > end {
				end = sp.Off + sp.Len
			}
		}
	}
	if !placed {
		out = append(out, Span{Off: start, Len: end - start})
	}
	return out
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

// SetJournalDepth bounds the per-page sealed-epoch ring. Depths below 1
// select DefaultDeltaJournalDepth. Existing rings are trimmed lazily on the
// next seal.
func (s *Store) SetJournalDepth(d int) {
	if d < 1 {
		d = DefaultDeltaJournalDepth
	}
	s.mu.Lock()
	s.journalDepth = d
	s.mu.Unlock()
}

// journalDepthLocked returns the configured ring bound. Caller holds s.mu.
func (s *Store) journalDepthLocked() int {
	if s.journalDepth < 1 {
		return DefaultDeltaJournalDepth
	}
	return s.journalDepth
}

// sealLocked moves the page's open-epoch dirty ranges into the sealed ring
// as the transition old→now. A version change with no recorded writes means
// the bytes changed through a path the journal did not observe, so the whole
// ring is invalidated rather than risk serving a delta that misses bytes.
// Caller holds s.mu.
func (s *Store) sealLocked(pg *page, old, now uint64) {
	if now == old {
		return
	}
	if len(pg.pending) == 0 {
		pg.hist = nil
		return
	}
	s.recordLocked(pg, epoch{base: old, target: now, runs: pg.pending})
	pg.pending = nil
}

// recordLocked appends e to the page's sealed ring, evicting the oldest
// epochs first when the ring is at its depth: appending and trimming
// afterwards let the slice grow to the next capacity beyond the depth — twice
// the ring, kept for good by every page that is written often enough to fill
// it. Caller holds s.mu.
func (s *Store) recordLocked(pg *page, e epoch) {
	if d := s.journalDepthLocked(); len(pg.hist) >= d {
		pg.hist = append(pg.hist[:0], pg.hist[len(pg.hist)-d+1:]...)
	}
	pg.hist = append(pg.hist, e)
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
// journal, so a site that caught up via a delta can serve deltas onward.
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
	done := 0
	for _, r := range runs {
		copy(pg.data[r.Off:r.Off+r.Len], data[done:done+r.Len])
		done += r.Len
	}
	pg.version = target
	s.recordLocked(pg, epoch{base: base, target: target, runs: intervalSet(runs).clone()})
	return nil
}

// DeltaSince reports what changed on pid between version base and the
// resident copy, if the journal still covers that range. The merged runs'
// current bytes are concatenated into buf (which must hold PageSize bytes).
// ok=false means the caller must fall back to a full-page transfer: the page
// is missing, locally dirty (its bytes are not yet any committed version),
// the base epoch was evicted from the bounded ring, or the chain is not
// contiguous up to the current version.
func (s *Store) DeltaSince(pid ids.PageID, base uint64, buf []byte) (runs []Span, target uint64, n int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pg, found := s.lookupLocked(pid)
	if !found || pg.dirty || len(pg.pending) > 0 || base >= pg.version {
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
	om, ok := s.objects[pid.Object]
	if !ok {
		return
	}
	delete(om.pages, pid.Page)
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
