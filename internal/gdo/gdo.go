// Package gdo implements the Global Directory of Objects of §4.1 of the
// paper (after [MGB96]): the per-object global lock state (Figure 1 —
// LockState, ReadCount, HolderPtr, NonHoldersPtr) and the page map that
// records which site stores the most up-to-date version of each page.
//
// The directory arbitrates between transaction *families*; all intra-family
// scheduling is local (package o2pl). Algorithm 4.2 (GlobalLockAcquisition)
// and Algorithm 4.4 (GlobalLockRelease) are implemented by Acquire and
// Release. Two productionization extensions beyond the paper's sketches are
// included and documented in DESIGN.md: read→write lock upgrades for
// families whose later sub-transactions need stronger access, and
// inter-family deadlock detection on the waits-for graph with
// youngest-family victim selection (the paper's simulation sidesteps both).
//
// A Directory holds one partition's worth of state. The paper partitions
// and replicates the GDO for scale/reliability; package directory realizes
// the partitioning — a Sharded router over N Directory instances, one per
// shard — while HomeNode keeps the cost model's per-object message
// attribution. A deployment with a single partition (the default) uses one
// Directory exactly as before.
package gdo

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// Directory errors.
var (
	ErrUnknownObject = errors.New("gdo: unknown object")
	ErrObjectExists  = errors.New("gdo: object already registered")
	ErrNotHolder     = errors.New("gdo: family does not hold the lock")
	ErrBadRelease    = errors.New("gdo: invalid release")
)

// LockState is the global state of one object's lock (Figure 1).
type LockState int

// Global lock states.
const (
	Free LockState = iota + 1
	HeldRead
	HeldWrite
)

// String implements fmt.Stringer.
func (s LockState) String() string {
	switch s {
	case Free:
		return "free"
	case HeldRead:
		return "held-read"
	case HeldWrite:
		return "held-write"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// PageLoc records, for one page, the site storing its most up-to-date
// version and that version's number. Versions are assigned by the directory
// at global release time, monotonically per page.
type PageLoc struct {
	Node    ids.NodeID
	Version uint64
}

// QueuedReq is one transaction's queued global request.
type QueuedReq struct {
	Ref  ids.TxRef
	Mode o2pl.Mode
}

// familyHold records one family currently holding the global lock.
type familyHold struct {
	family ids.FamilyID
	site   ids.NodeID
	mode   o2pl.Mode
	refs   []ids.TxRef
}

// familyQueue is one family's list in the NonHoldersPtr list-of-lists.
type familyQueue struct {
	family ids.FamilyID
	site   ids.NodeID
	age    uint64
	reqs   []QueuedReq
}

// upgradeWait is a family holding Read that has requested Write.
type upgradeWait struct {
	family ids.FamilyID
	site   ids.NodeID
	age    uint64
	ref    ids.TxRef
}

// entry is the global directory record for one object.
type entry struct {
	obj      ids.ObjectID
	numPages int
	holders  []*familyHold
	queues   []*familyQueue
	upgrades []*upgradeWait
	pageMap  []PageLoc
	copySet  map[ids.NodeID]bool
	// lastWriter is the site of the most recent committing update. Under
	// the whole-object protocols (COTEC/OTEC) it always holds a complete
	// up-to-date copy, making it the single gather source the paper
	// describes.
	lastWriter ids.NodeID
	// streakSite is the site of the most recent fresh grant and streak how
	// many running it has had, saturating at KeepStreak; a hand-back of the
	// site hold resets it. Only counted with retention on (retain.go).
	streakSite ids.NodeID
	streak     uint8
}

// state derives the LockState from the holder list.
//
//lotec:noalloc
func (e *entry) state() LockState {
	if len(e.holders) == 0 {
		return Free
	}
	for _, h := range e.holders {
		if h.mode == o2pl.Write {
			return HeldWrite
		}
	}
	return HeldRead
}

// holder and queue scan the short per-entry lists; with state they are the
// grant/release fast path and must not allocate.
//
//lotec:noalloc
func (e *entry) holder(f ids.FamilyID) *familyHold {
	for _, h := range e.holders {
		if h.family == f {
			return h
		}
	}
	return nil
}

//lotec:noalloc
func (e *entry) queue(f ids.FamilyID) *familyQueue {
	for _, q := range e.queues {
		if q.family == f {
			return q
		}
	}
	return nil
}

// Directory is the global directory of objects. It is safe for concurrent
// use.
type Directory struct {
	mu      sync.Mutex
	entries map[ids.ObjectID]*entry // guarded by mu
	nodes   int                     // cluster size, for HomeNode; immutable
	retain  bool                    // guarded by mu; site-retained grants on (retain.go)

	// waitObjs indexes the entries that currently have queued requests or
	// pending upgrades, so waits-for graph construction touches only
	// objects someone is actually waiting on (the common case is none).
	waitObjs map[ids.ObjectID]*entry // guarded by mu

	// Commit-order bookkeeping: strict O2PL serializes committed families
	// in the order their (first) committing release reaches the directory.
	commits CommitWindow // guarded by mu

	// Reused hot-path scratch. Acquire and Release run on every protocol
	// crossover, so their working sets are kept on the Directory and
	// recycled: at steady state the grant/release path performs no
	// allocations (ROADMAP item 4). All guarded by mu.
	wf       wfScratch      // waits-for detector working state (deadlock.go)
	entScr   []*entry       // waitEntriesSortedLocked sweep list
	famScr   []ids.FamilyID // recheckQueuedLocked deadlock re-check snapshot
	touchScr []*entry       // Release touched-entry list
	holdFree []*familyHold  // familyHold freelist (records never escape)
}

// New returns an empty directory for a cluster of n nodes (n ≥ 1; used only
// by HomeNode cost attribution).
func New(n int) *Directory {
	if n < 1 {
		n = 1
	}
	return &Directory{
		entries:  make(map[ids.ObjectID]*entry),
		nodes:    n,
		waitObjs: make(map[ids.ObjectID]*entry),
	}
}

// noteWaitersLocked keeps waitObjs exact; it must be called after any
// mutation of e's queues or upgrades. Caller holds d.mu.
//
//lotec:noalloc
func (d *Directory) noteWaitersLocked(e *entry) {
	if len(e.queues) > 0 || len(e.upgrades) > 0 {
		d.waitObjs[e.obj] = e
	} else {
		delete(d.waitObjs, e.obj)
	}
}

// newHoldLocked returns a reset familyHold for a fresh grant, reusing a
// record (and its refs backing array) from the freelist when one is
// available. Caller holds d.mu.
//
//lotec:noalloc
func (d *Directory) newHoldLocked(f ids.FamilyID, site ids.NodeID, mode o2pl.Mode) *familyHold {
	if n := len(d.holdFree); n > 0 {
		h := d.holdFree[n-1]
		d.holdFree[n-1] = nil
		d.holdFree = d.holdFree[:n-1]
		h.family, h.site, h.mode = f, site, mode
		h.refs = h.refs[:0]
		return h
	}
	return &familyHold{family: f, site: site, mode: mode} //lotec:alloc-ok — pool miss; removeHolderLocked recycles the record
}

// removeHolderLocked unlinks the hold recorded under f from e and recycles
// the record onto the freelist. Holds never leave the package (events carry queue
// requests, not holder refs), so the next grant may safely reuse the struct.
// Caller holds d.mu.
//
//lotec:noalloc
func (d *Directory) removeHolderLocked(e *entry, f ids.FamilyID) bool {
	for i, h := range e.holders {
		if h.family == f {
			e.holders = append(e.holders[:i], e.holders[i+1:]...)
			d.holdFree = append(d.holdFree, h)
			return true
		}
	}
	return false
}

// HomeNode returns the GDO partition (node) responsible for obj. The
// directory state itself is centralized; HomeNode exists so the simulation
// charges global lock messages to the right partition, matching the paper's
// partitioned GDO.
//
//lotec:noalloc
func (d *Directory) HomeNode(obj ids.ObjectID) ids.NodeID {
	return ids.NodeID(int64(obj)%int64(d.nodes)) + 1
}

// Register adds an object of numPages pages whose initial up-to-date copy
// (version 1) resides wholly at owner.
func (d *Directory) Register(obj ids.ObjectID, numPages int, owner ids.NodeID) error {
	if numPages <= 0 {
		return fmt.Errorf("gdo: register %v: numPages %d must be positive", obj, numPages)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.entries[obj]; dup {
		return fmt.Errorf("%w: %v", ErrObjectExists, obj)
	}
	e := &entry{
		obj:        obj,
		numPages:   numPages,
		pageMap:    make([]PageLoc, numPages),
		copySet:    map[ids.NodeID]bool{owner: true},
		lastWriter: owner,
	}
	for i := range e.pageMap {
		e.pageMap[i] = PageLoc{Node: owner, Version: 1}
	}
	d.entries[obj] = e
	return nil
}

// NumPages returns the registered extent of obj.
func (d *Directory) NumPages(obj ids.ObjectID) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[obj]
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrUnknownObject, obj)
	}
	return e.numPages, nil
}

// Objects returns all registered objects in ascending order.
func (d *Directory) Objects() []ids.ObjectID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ids.ObjectID, 0, len(d.entries))
	for o := range d.entries {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// State returns the global lock state of obj (diagnostics/tests).
func (d *Directory) State(obj ids.ObjectID) (LockState, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[obj]
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrUnknownObject, obj)
	}
	return e.state(), nil
}

// ReadCount returns the number of reader families currently holding obj
// (Figure 1's ReadCount).
func (d *Directory) ReadCount(obj ids.ObjectID) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[obj]
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrUnknownObject, obj)
	}
	if e.state() != HeldRead {
		return 0, nil
	}
	return len(e.holders), nil
}

// PageMap returns a copy of obj's page map.
func (d *Directory) PageMap(obj ids.ObjectID) ([]PageLoc, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[obj]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownObject, obj)
	}
	return append([]PageLoc(nil), e.pageMap...), nil
}

// CopySet returns the sites known to cache pages of obj, ascending.
func (d *Directory) CopySet(obj ids.ObjectID) ([]ids.NodeID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[obj]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownObject, obj)
	}
	out := make([]ids.NodeID, 0, len(e.copySet))
	for n := range e.copySet {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// CommitSeq returns the family's position in the global commit order (1 is
// first), recorded when its first committing release was processed. Strict
// nested O2PL holds every lock until root commit, so this order linearizes
// all transaction conflicts — it is the serialization order tests replay.
// Only the last CommitWindowSize assignments are remembered: ask while the
// family is committing or just after, as the simulator does.
func (d *Directory) CommitSeq(f ids.FamilyID) (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.commits.Seq(f)
}

// AssignCommitSeq assigns (or returns the already-assigned) commit-order
// position for a family, as a committing Release does. In replicated
// topologies the sequencer is the directory of one designated shard, which
// committing families release to first.
func (d *Directory) AssignCommitSeq(f ids.FamilyID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.commits.Assign(f)
}

// LastWriter returns the site of obj's most recent committing update.
func (d *Directory) LastWriter(obj ids.ObjectID) (ids.NodeID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[obj]
	if !ok {
		return ids.NoNode, fmt.Errorf("%w: %v", ErrUnknownObject, obj)
	}
	return e.lastWriter, nil
}
