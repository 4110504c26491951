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
// ready to use; the ring grows lazily, like fault.Dedup's, and the index is
// allocated with the first assignment. Not safe for concurrent use: the
// owner guards it with its own mutex.
//
// The index is a fixed open-addressing table, not a Go map: every
// assignment past the first CommitWindowSize inserts one key and deletes
// another, and under that churn the runtime's map keeps its tombstones and
// doubles — 144 KiB at first, 289 KiB after half a million commits, 577 KiB
// after two million, with the live entries never more than the window. The
// table deletes by shifting the rest of the probe run back, so it has no
// tombstones and its size is its size.
type CommitWindow struct {
	seq uint64
	// ring[(s-1)%CommitWindowSize] is the family that was assigned
	// sequence s, for every s still in the window.
	ring []ids.FamilyID
	// slots indexes the ring by family: linear probing from home(family), a
	// zero seq marking an empty slot. Nil until the first assignment.
	slots []windowSlot
}

// windowSlot is one entry of the index; sequence numbers start at 1.
type windowSlot struct {
	fam ids.FamilyID
	seq uint64
}

// windowSlots is the index's size: twice the window, so probe runs stay
// short.
const (
	windowSlotBits = 13
	windowSlots    = 1 << windowSlotBits
)

var _ = [1]struct{}{}[windowSlots-2*CommitWindowSize] // the two constants agree

// home is where a family's probe run starts (Fibonacci hashing: family IDs
// are consecutive integers above a per-node base).
//
//lotec:noalloc
func home(f ids.FamilyID) int {
	return int(uint64(f) * 0x9E3779B97F4A7C15 >> (64 - windowSlotBits))
}

// find returns the index of f's slot, or of the empty slot that ends its
// probe run.
//
//lotec:noalloc
func (w *CommitWindow) find(f ids.FamilyID) int {
	i := home(f)
	for w.slots[i].seq != 0 && w.slots[i].fam != f {
		i = (i + 1) % windowSlots
	}
	return i
}

// remove deletes f from the index and closes the gap: every later entry of
// the probe run that the gap would cut off from its home moves back into it.
//
//lotec:noalloc
func (w *CommitWindow) remove(f ids.FamilyID) {
	i := w.find(f)
	if w.slots[i].seq == 0 {
		return
	}
	for j := (i + 1) % windowSlots; w.slots[j].seq != 0; j = (j + 1) % windowSlots {
		// The entry at j may fill the gap at i unless its home lies
		// cyclically in (i, j]: then it is still reachable where it is.
		if h := home(w.slots[j].fam); (j-h+windowSlots)%windowSlots >= (j-i+windowSlots)%windowSlots {
			w.slots[i] = w.slots[j]
			i = j
		}
	}
	w.slots[i] = windowSlot{}
}

// Assign returns the family's position in the commit order (1 is first),
// assigning the next one unless the window still holds an earlier
// assignment.
func (w *CommitWindow) Assign(f ids.FamilyID) uint64 {
	if w.slots == nil {
		w.slots = make([]windowSlot, windowSlots)
	}
	i := w.find(f)
	if w.slots[i].seq != 0 {
		return w.slots[i].seq
	}
	w.seq++
	if len(w.ring) < CommitWindowSize {
		w.ring = append(w.ring, f)
	} else {
		slot := &w.ring[(w.seq-1)%CommitWindowSize]
		w.remove(*slot)
		*slot = f
		i = w.find(f) // the removal may have shifted f's run
	}
	w.slots[i] = windowSlot{fam: f, seq: w.seq}
	return w.seq
}

// Seq returns the family's assigned position, if the window still holds it.
func (w *CommitWindow) Seq(f ids.FamilyID) (uint64, bool) {
	if w.slots == nil {
		return 0, false
	}
	seq := w.slots[w.find(f)].seq
	return seq, seq != 0
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
	*w = CommitWindow{seq: seq, ring: make([]ids.FamilyID, len(fams))}
	if len(fams) > 0 {
		w.slots = make([]windowSlot, windowSlots)
	}
	for i, f := range fams {
		s := w.oldest() + uint64(i)
		w.ring[(s-1)%CommitWindowSize] = f
		at := w.find(f)
		if w.slots[at].seq != 0 {
			return false
		}
		w.slots[at] = windowSlot{fam: f, seq: s}
	}
	return true
}
