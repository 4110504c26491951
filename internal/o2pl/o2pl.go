// Package o2pl implements the *local* half of the paper's nested object
// two-phase locking protocol (§3.4, §4.1): the per-site, per-family cached
// lock entry that Algorithm 4.1 (LocalLockAcquisition) and Algorithm 4.3
// (LocalLockRelease) operate on.
//
// "The locally cached portion of a GDO entry for a given object consists of
// the entire list of transactions from the family currently holding the
// object's lock" (§4.1) — an Entry is exactly that cache: the holder list,
// the set of retaining ancestors, and the family's local FIFO wait queue.
// Inter-family arbitration is the GDO's job (package gdo).
//
// The package is pure state machine: no I/O, no blocking. Operations return
// decisions and newly granted waiters; the node engine does the messaging
// and wakes parked transactions.
package o2pl

import (
	"errors"
	"fmt"
	"sort"

	"lotec/internal/ids"
	"lotec/internal/txn"
)

// Mode is a lock mode. Modes are ordered: Write subsumes Read, so a family
// holding a Write lock globally can satisfy local Read requests.
type Mode int

// Lock modes (multiple readers / single writer, §4.1 rule 1).
const (
	Read  Mode = iota + 1 // shared
	Write                 // exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Conflicts reports whether two lock modes conflict.
func Conflicts(a, b Mode) bool { return a == Write || b == Write }

// ErrRecursiveInvocation is returned when a transaction requests a lock held
// (not merely retained) by one of its ancestors. The paper precludes
// mutually recursive invocations (§3.4): granting would be unsafe and
// waiting would deadlock the family, so the invocation fails and the
// sub-transaction aborts.
var ErrRecursiveInvocation = errors.New("o2pl: object lock is held by an ancestor (recursive invocation precluded)")

// ErrWrongFamily is returned when a transaction from a different family is
// presented to a family-local entry; it indicates an engine bug.
var ErrWrongFamily = errors.New("o2pl: transaction does not belong to entry's family")

// Decision is the outcome of a local acquisition attempt.
type Decision int

// Acquisition outcomes.
const (
	// Granted means the lock was acquired immediately.
	Granted Decision = iota + 1
	// Waiting means the request was queued on the family's local list
	// ("Link transaction onto local list", Alg 4.1).
	Waiting
	// NeedGlobal means the request exceeds the mode the GDO granted this
	// family (a Read-held family wants Write): the engine must perform a
	// global upgrade before re-presenting the request.
	NeedGlobal
)

// Waiter is a queued local request. The engine owns Data (typically the
// parked transaction's wake-up future).
type Waiter struct {
	Tx   *txn.Txn
	Mode Mode
	Data any
}

// hold records one current holder.
type hold struct {
	tx   *txn.Txn
	mode Mode
}

// Entry is the locally cached lock state of one object for one family.
// Entries are not safe for concurrent use; the node engine serializes
// access.
type Entry struct {
	obj        ids.ObjectID
	family     ids.FamilyID
	globalMode Mode // strongest mode the GDO has granted this family

	holders   map[ids.TxID]hold
	retainers map[ids.TxID]*txn.Txn // ancestor chain of retaining transactions; nil until the first pre-commit
	waiters   []*Waiter
}

// NewEntry creates the local cache entry when the GDO grants the family
// access to obj at globalMode.
func NewEntry(obj ids.ObjectID, family ids.FamilyID, globalMode Mode) *Entry {
	return &Entry{
		obj:        obj,
		family:     family,
		globalMode: globalMode,
		holders:    make(map[ids.TxID]hold),
	}
}

// Object returns the object this entry caches.
func (e *Entry) Object() ids.ObjectID { return e.obj }

// Family returns the owning family.
func (e *Entry) Family() ids.FamilyID { return e.family }

// GlobalMode returns the strongest mode granted by the GDO.
func (e *Entry) GlobalMode() Mode { return e.globalMode }

// SetGlobalMode records a GDO-granted upgrade (Read → Write).
func (e *Entry) SetGlobalMode(m Mode) {
	if m > e.globalMode {
		e.globalMode = m
	}
}

// HolderCount returns the number of current holders.
func (e *Entry) HolderCount() int { return len(e.holders) }

// WaiterCount returns the length of the local wait queue.
func (e *Entry) WaiterCount() int { return len(e.waiters) }

// Holds reports whether tx currently holds the lock, and in which mode.
func (e *Entry) Holds(tx *txn.Txn) (Mode, bool) {
	h, ok := e.holders[tx.ID()]
	if !ok {
		return 0, false
	}
	return h.mode, true
}

// Retains reports whether tx currently retains the lock.
func (e *Entry) Retains(tx *txn.Txn) bool {
	_, ok := e.retainers[tx.ID()]
	return ok
}

// Idle reports whether the entry has no holders, no retainers and no
// waiters — i.e. the family has relinquished the object.
func (e *Entry) Idle() bool {
	return len(e.holders) == 0 && len(e.retainers) == 0 && len(e.waiters) == 0
}

// HolderRefs returns ⟨tx,node⟩ refs for all current holders in TxID order
// (diagnostics and GDO reporting; the order is part of the deterministic
// trace).
func (e *Entry) HolderRefs() []ids.TxRef {
	out := make([]ids.TxRef, 0, len(e.holders))
	for _, id := range sortedTxIDs(e.holders) {
		out = append(out, e.holders[id].tx.Ref())
	}
	return out
}

// deepestRetainer returns the retainer with the greatest depth, or nil.
// Retainers always form a chain along one root path, so the deepest one
// being an ancestor of a requester implies they all are. Iteration is in
// TxID order so ties (impossible on a chain, but cheap to rule out) cannot
// make the answer depend on map order.
func (e *Entry) deepestRetainer() *txn.Txn {
	var deepest *txn.Txn
	for _, id := range sortedTxIDs(e.retainers) {
		r := e.retainers[id]
		if deepest == nil || r.Depth() > deepest.Depth() {
			deepest = r
		}
	}
	return deepest
}

// retainersPermit reports rule 1's retention condition: every retaining
// transaction is an ancestor of tx (vacuously true with no retainers).
func (e *Entry) retainersPermit(tx *txn.Txn) bool {
	d := e.deepestRetainer()
	return d == nil || d.IsAncestorOf(tx)
}

// eligible reports whether a (tx, mode) request can be granted right now
// under the current holders and retainers, per Alg 4.1. tx's own existing
// hold (if any) is ignored, so a holder can upgrade Read→Write once its
// sibling readers drain.
func (e *Entry) eligible(tx *txn.Txn, mode Mode) bool {
	if !e.retainersPermit(tx) {
		return false
	}
	self := tx.ID()
	others, writers := 0, 0
	for id, h := range e.holders {
		if id == self {
			continue
		}
		others++
		if h.mode == Write {
			writers++
		}
	}
	if writers > 0 {
		return false
	}
	if others == 0 {
		return true
	}
	return mode == Read
}

// Acquire implements the cached-entry arm of Algorithm 4.1 for a request by
// tx at mode. On Waiting, the returned *Waiter has been queued and the
// engine should park the transaction after attaching its wake-up Data.
func (e *Entry) Acquire(tx *txn.Txn, mode Mode) (Decision, *Waiter, error) {
	if tx.Family() != e.family {
		return 0, nil, fmt.Errorf("%w: %v vs family %v", ErrWrongFamily, tx, e.family)
	}
	// Precluded mutually recursive invocation: an ancestor *holds* the lock
	// (§3.4). Checked before anything else; cost is proportional to the
	// number of holders, i.e. bounded by nesting depth for writes. Holders
	// are scanned in TxID order so the ancestor named in the error (which
	// lands in the deterministic trace) cannot depend on map order.
	for _, id := range sortedTxIDs(e.holders) {
		if h := e.holders[id]; h.tx.IsAncestorOf(tx) {
			return 0, nil, fmt.Errorf("%v requesting %v held by ancestor %v: %w",
				tx.ID(), e.obj, h.tx.ID(), ErrRecursiveInvocation)
		}
	}
	// Re-acquisition by a current holder: a no-op at equal-or-weaker mode,
	// an upgrade otherwise (needed when a lenient-mode body performs an
	// unpredicted write under a read lock).
	if h, ok := e.holders[tx.ID()]; ok && mode <= h.mode {
		return Granted, nil, nil
	}
	if mode > e.globalMode {
		return NeedGlobal, nil, nil
	}
	if e.eligible(tx, mode) {
		e.holders[tx.ID()] = hold{tx: tx, mode: mode}
		return Granted, nil, nil
	}
	w := &Waiter{Tx: tx, Mode: mode}
	e.waiters = append(e.waiters, w)
	return Waiting, w, nil
}

// Enqueue appends an already-built waiter (a request forwarded back from
// the GDO in a family grant batch) without eligibility checks; call
// GrantEligible afterwards.
func (e *Entry) Enqueue(w *Waiter) {
	e.waiters = append(e.waiters, w)
}

// GrantEligible scans the wait queue in FIFO order and grants every waiter
// that is eligible under the evolving holder set. Granted waiters are
// removed from the queue and returned so the engine can wake them.
//
// Readers may bypass queued writers, mirroring Alg 4.1's unconditional
// "grant the Read lock" arm; the paper accepts potential writer starvation
// in exchange for simplicity.
func (e *Entry) GrantEligible() []*Waiter {
	var granted []*Waiter
	rest := e.waiters[:0]
	for _, w := range e.waiters {
		// A waiter whose ancestor now holds the lock can never be granted;
		// this arises only through engine bugs, but failing closed (keep
		// waiting) is safer than granting.
		if e.eligible(w.Tx, w.Mode) {
			e.holders[w.Tx.ID()] = hold{tx: w.Tx, mode: w.Mode}
			granted = append(granted, w)
		} else {
			rest = append(rest, w)
		}
	}
	e.waiters = rest
	return granted
}

// retain records parent (nil for a root's) as retaining the lock.
func (e *Entry) retain(parent *txn.Txn) {
	if parent == nil {
		return
	}
	if e.retainers == nil {
		e.retainers = make(map[ids.TxID]*txn.Txn)
	}
	e.retainers[parent.ID()] = parent
}

// PreCommit applies rule 3 of §4.1 to this entry when tx pre-commits: if tx
// holds the lock its hold is released to the parent for retaining, and if
// tx retains the lock the retention likewise passes to the parent ("its
// parent inherits and retains all of its locks (both held and retained)").
// Newly grantable waiters are returned.
func (e *Entry) PreCommit(tx *txn.Txn) []*Waiter {
	parent := tx.Parent()
	changed := false
	if _, ok := e.holders[tx.ID()]; ok {
		delete(e.holders, tx.ID())
		e.retain(parent)
		changed = true
	}
	if _, ok := e.retainers[tx.ID()]; ok {
		delete(e.retainers, tx.ID())
		e.retain(parent)
		changed = true
	}
	if !changed {
		return nil
	}
	return e.GrantEligible()
}

// AbortOutcome describes what the engine must do with the entry after a
// transaction abort.
type AbortOutcome struct {
	// Granted holds local waiters to wake.
	Granted []*Waiter
	// ReleaseGlobal is true when the family no longer holds, retains or
	// awaits the lock: Alg 4.3's "ELSE /* not retained by an ancestor */
	// Forward request to GlobalLockRelease".
	ReleaseGlobal bool
}

// Abort applies rule 4 of §4.1 when tx aborts: tx's hold and its own
// retention are dropped; retention by its ancestors persists ("who then
// continue to retain the locks"). Any waiter owned by tx is dropped too
// (its invocation is being unwound).
func (e *Entry) Abort(tx *txn.Txn) AbortOutcome {
	delete(e.holders, tx.ID())
	delete(e.retainers, tx.ID())
	rest := e.waiters[:0]
	for _, w := range e.waiters {
		if w.Tx != tx {
			rest = append(rest, w)
		}
	}
	e.waiters = rest

	out := AbortOutcome{Granted: e.GrantEligible()}
	out.ReleaseGlobal = e.Idle()
	return out
}

// DropWaiter removes a specific queued waiter (used when a parked
// transaction is aborted externally, e.g. by deadlock resolution).
func (e *Entry) DropWaiter(target *Waiter) bool {
	for i, w := range e.waiters {
		if w == target {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// RetainerRefs returns the current retainers in TxID order (diagnostics).
func (e *Entry) RetainerRefs() []ids.TxRef {
	out := make([]ids.TxRef, 0, len(e.retainers))
	for _, id := range sortedTxIDs(e.retainers) {
		out = append(out, e.retainers[id].Ref())
	}
	return out
}

// sortedTxIDs returns the map's keys in increasing TxID order, so lock-table
// scans observe holders and retainers deterministically.
func sortedTxIDs[V any](m map[ids.TxID]V) []ids.TxID {
	if len(m) == 0 {
		return nil
	}
	out := make([]ids.TxID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	if len(out) == 1 {
		return out
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
