package pstore

import (
	"fmt"

	"lotec/internal/ids"
)

// undoRec is one shadow-page record: the bytes, dirty flag, and open
// dirty-range journal epoch of a page as they were immediately before the
// owning transaction's first write to it.
type undoRec struct {
	pid     ids.PageID
	before  []byte
	dirty   bool
	pending intervalSet
}

// UndoLog is a per-transaction shadow-page log (§4.1 of the paper: "UNDO
// operations … may be done using either local UNDO logs or shadow pages. In
// either case, no network communication is required.").
//
// Closed-nesting semantics are obtained by merging a pre-committing
// sub-transaction's log into its parent's (MergeInto): if an ancestor later
// aborts, the descendant's effects are rolled back too. Records are replayed
// in reverse order of creation so the merged log always restores the oldest
// state, regardless of how many descendants wrote the same page.
//
// An UndoLog is not safe for concurrent use; each [sub-]transaction owns
// exactly one and transactions are single-threaded.
type UndoLog struct {
	recs []undoRec
	seen map[ids.PageID]bool // made by the first snapshot: most logs never take one
}

// NewUndoLog returns an empty log.
func NewUndoLog() *UndoLog {
	return &UndoLog{}
}

// Len reports the number of shadow records held.
func (l *UndoLog) Len() int { return len(l.recs) }

// SnapshotBefore records shadow copies of the given pages of obj, skipping
// pages this log has already snapshotted. It must be called before the write
// is applied. All pages must be resident.
func (l *UndoLog) SnapshotBefore(st *Store, obj ids.ObjectID, pages []ids.PageNum) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	om, ok := st.objects[obj]
	if !ok {
		return fmt.Errorf("%w: %v", ErrObjectUnknown, obj)
	}
	for _, p := range pages {
		pid := ids.PageID{Object: obj, Page: p}
		if l.seen[pid] {
			continue
		}
		pg, ok := om.pages[p]
		if !ok {
			return &PageMissingError{PID: pid}
		}
		before, dirty, pending := pg.snapshotLocked()
		l.recs = append(l.recs, undoRec{pid: pid, before: before, dirty: dirty, pending: pending})
		if l.seen == nil {
			l.seen = make(map[ids.PageID]bool)
		}
		l.seen[pid] = true
	}
	return nil
}

// Undo restores every recorded page, newest record first, and empties the
// log. Pages that are no longer resident are skipped (they cannot have been
// observed by anyone, since the lock is still held).
func (l *UndoLog) Undo(st *Store) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := len(l.recs) - 1; i >= 0; i-- {
		r := l.recs[i]
		if pg, ok := st.lookupLocked(r.pid); ok {
			pg.restore(r.before, r.dirty, r.pending)
		}
	}
	l.recs, l.seen = nil, nil
}

// MergeInto appends this log's records to parent (preserving creation order)
// and empties this log. Called when a sub-transaction pre-commits, so that
// an ancestor abort also undoes the pre-committed child (§3.2 lock
// inheritance has the matching undo-inheritance here).
//
// Records for pages the parent has already snapshotted are kept anyway:
// reverse-order replay guarantees the parent's older snapshot is applied
// last, so correctness never depends on deduplication.
func (l *UndoLog) MergeInto(parent *UndoLog) {
	parent.recs = append(parent.recs, l.recs...)
	if parent.seen == nil {
		parent.seen = l.seen
	} else {
		for pid := range l.seen {
			parent.seen[pid] = true
		}
	}
	l.recs, l.seen = nil, nil
}

// Discard drops all records (used at root commit, when no rollback can ever
// be needed again).
func (l *UndoLog) Discard() {
	l.recs, l.seen = nil, nil
}

// Pages returns the distinct pages recorded in the log, in record order of
// first appearance. Useful for tests and diagnostics.
func (l *UndoLog) Pages() []ids.PageID {
	out := make([]ids.PageID, 0, len(l.seen))
	emitted := make(map[ids.PageID]bool, len(l.seen))
	for _, r := range l.recs {
		if !emitted[r.pid] {
			emitted[r.pid] = true
			out = append(out, r.pid)
		}
	}
	return out
}
