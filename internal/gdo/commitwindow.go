package gdo

import "lotec/internal/ids"

// CommitWindowSize is how many of the most recent commit-order assignments
// a CommitWindow remembers. An assignment is consulted only between a
// family's first committing release and its last (and by a retried one),
// so the window needs to span the families concurrently committing, not
// the families ever committed.
const CommitWindowSize = 1 << 12

// CommitWindow is the commit-order bookkeeping of a directory: a counter
// plus the family→sequence index of the last CommitWindowSize assignments.
// Eviction is FIFO and therefore a pure function of the assignment
// sequence, so a backup replaying the op-log and a directory rebuilt from a
// snapshot hold exactly the window of the original. The zero value is
// ready to use; the ring grows lazily, like fault.Dedup's. Not safe for
// concurrent use: the owner guards it with its own mutex.
type CommitWindow struct {
	seq   uint64
	order map[ids.FamilyID]uint64
	// ring[(s-1)%CommitWindowSize] is the family that was assigned
	// sequence s, for every s still in the window.
	ring []ids.FamilyID
}

// Assign returns the family's position in the commit order (1 is first),
// assigning the next one unless the window still holds an earlier
// assignment.
func (w *CommitWindow) Assign(f ids.FamilyID) uint64 {
	if seq, ok := w.order[f]; ok {
		return seq
	}
	if w.order == nil {
		w.order = make(map[ids.FamilyID]uint64)
	}
	w.seq++
	if len(w.ring) < CommitWindowSize {
		w.ring = append(w.ring, f)
	} else {
		slot := &w.ring[(w.seq-1)%CommitWindowSize]
		delete(w.order, *slot)
		*slot = f
	}
	w.order[f] = w.seq
	return w.seq
}

// Seq returns the family's assigned position, if the window still holds it.
func (w *CommitWindow) Seq(f ids.FamilyID) (uint64, bool) {
	seq, ok := w.order[f]
	return seq, ok
}

// Len returns how many assignments the window holds.
func (w *CommitWindow) Len() int { return len(w.ring) }

// oldest returns the sequence number of the oldest assignment held.
func (w *CommitWindow) oldest() uint64 { return w.seq - uint64(len(w.ring)) + 1 }

// family returns the family assigned sequence s, which must be in the
// window.
func (w *CommitWindow) family(s uint64) ids.FamilyID {
	return w.ring[(s-1)%CommitWindowSize]
}

// restore rebuilds the window whose last assignment was seq from the
// families of the assignments it held, oldest first. It reports false when
// fams cannot be such a window: the wrong length for seq, or a family
// listed twice.
func (w *CommitWindow) restore(seq uint64, fams []ids.FamilyID) bool {
	if uint64(len(fams)) != min(seq, CommitWindowSize) {
		return false
	}
	*w = CommitWindow{
		seq:   seq,
		order: make(map[ids.FamilyID]uint64, len(fams)),
		ring:  make([]ids.FamilyID, len(fams)),
	}
	for i, f := range fams {
		s := w.oldest() + uint64(i)
		w.ring[(s-1)%CommitWindowSize] = f
		w.order[f] = s
	}
	return len(w.order) == len(fams)
}
