package gdo

import (
	"fmt"

	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// AcquireStatus is the immediate outcome of a global acquisition request.
type AcquireStatus int

// Acquisition outcomes.
const (
	// GrantedNow: the lock (or upgrade) was granted synchronously; the
	// reply carries the page map.
	GrantedNow AcquireStatus = iota + 1
	// Queued: the request was linked into the family's NonHoldersPtr list
	// (Alg 4.2); a Grant event will be delivered later.
	Queued
	// DeadlockAbort: granting could never happen — queuing this request
	// closes a waits-for cycle and this family was chosen as victim. The
	// requesting root transaction must abort and may retry.
	DeadlockAbort
	// NotAdopted: an Adopt found neither a site hold of the requesting site
	// nor a hold of the family itself (the grant was handed back or
	// released meanwhile); nothing changed.
	NotAdopted
)

// String implements fmt.Stringer.
func (s AcquireStatus) String() string {
	switch s {
	case GrantedNow:
		return "granted"
	case Queued:
		return "queued"
	case DeadlockAbort:
		return "deadlock-abort"
	case NotAdopted:
		return "not-adopted"
	default:
		return fmt.Sprintf("acquire-status(%d)", int(s))
	}
}

// AcquireResult is the synchronous reply to an Acquire.
type AcquireResult struct {
	Status     AcquireStatus
	Mode       o2pl.Mode // granted global mode (GrantedNow only)
	PageMap    []PageLoc // page map snapshot (GrantedNow only)
	NumPages   int
	LastWriter ids.NodeID // site of the most recent committing update
}

// EventKind discriminates deferred directory events.
type EventKind int

// Deferred event kinds.
const (
	// EventGrant delivers a deferred lock grant to a family's site: "Send
	// the list pointed to by HolderPtr and the page map to the new
	// holder's site" (Alg 4.4).
	EventGrant EventKind = iota + 1
	// EventDeadlockAbort tells a site that its family's queued request(s)
	// were cancelled as a deadlock victim.
	EventDeadlockAbort
	// EventRecall tells a site that a request is queued behind the site
	// hold (Family) it retains on Obj.
	EventRecall
)

// Event is a deferred directory decision that the engine must deliver to
// Site.
type Event struct {
	Kind       EventKind
	Obj        ids.ObjectID
	Family     ids.FamilyID // EventRecall: the site hold's family ID
	Site       ids.NodeID
	Mode       o2pl.Mode   // EventGrant: granted global mode
	Reqs       []QueuedReq // the requests granted or aborted
	PageMap    []PageLoc   // EventGrant: page map snapshot
	NumPages   int
	Upgrade    bool       // EventGrant: this grant is a read→write upgrade
	LastWriter ids.NodeID // EventGrant: site of the most recent update
	// Shard is the directory partition the event originated from. The
	// single Directory always reports 0; the sharded router (package
	// directory) stamps the owning shard so the wire messages built from
	// the event stay shard-addressed.
	Shard int32
}

// Acquire implements Algorithm 4.2 (GlobalLockAcquisition) for a request by
// transaction ref of family, executing at site, in the given mode.
//
// Beyond the paper's sketch it also handles: repeat acquisitions by an
// already-holding family (granted immediately), read→write upgrades, and
// deadlock detection (victims may be this family — reported via the result —
// or another waiting family — reported via the returned events).
func (d *Directory) Acquire(obj ids.ObjectID, ref ids.TxRef, family ids.FamilyID, age uint64, site ids.NodeID, mode o2pl.Mode) (AcquireResult, []Event, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[obj]
	if !ok {
		return AcquireResult{}, nil, fmt.Errorf("%w: %v", ErrUnknownObject, obj)
	}

	if h := e.holder(family); h != nil {
		return d.acquireHolding(e, h, ref, age, site, mode)
	}

	switch {
	case e.state() == Free && len(e.upgrades) == 0:
		// "IF the lock is free THEN set the lock to held …"
		h := d.newHoldLocked(family, site, mode)
		h.refs = append(h.refs, ref)
		e.holders = append(e.holders, h)
		e.copySet[site] = true
		d.noteGrantLocked(e, site)
		return d.grantedNow(e, mode), nil, nil

	case e.state() == HeldRead && mode == o2pl.Read && len(e.upgrades) == 0:
		// "ELSE IF the lock is held for Read and this is a Read request
		// THEN grant" — reader sharing across families. Blocked while an
		// upgrade is pending so upgraders are not starved by a reader
		// stream.
		h := d.newHoldLocked(family, site, o2pl.Read)
		h.refs = append(h.refs, ref)
		e.holders = append(e.holders, h)
		e.copySet[site] = true
		d.noteGrantLocked(e, site)
		// Writers queued here now wait on this family too.
		return d.grantedNow(e, o2pl.Read), d.recheckQueuedLocked(e), nil

	default:
		// "IF there is a list … for the requesting transaction's family
		// THEN link the requesting transaction into its family's list ELSE
		// create a new list …"
		q := e.queue(family)
		if q == nil {
			q = &familyQueue{family: family, site: site, age: age}
			e.queues = append(e.queues, q)
		}
		q.reqs = append(q.reqs, QueuedReq{Ref: ref, Mode: mode})
		d.noteWaitersLocked(e)

		events, self := d.breakCyclesLocked(family)
		if self {
			d.purgeFamilyLocked(family)
			return AcquireResult{Status: DeadlockAbort}, events, nil
		}
		return AcquireResult{Status: Queued}, d.recallLocked(e, events), nil
	}
}

// acquireHolding handles a request from a family that already holds the
// lock: repeat grants and read→write upgrades. Caller holds d.mu.
func (d *Directory) acquireHolding(e *entry, h *familyHold, ref ids.TxRef, age uint64, site ids.NodeID, mode o2pl.Mode) (AcquireResult, []Event, error) {
	if mode <= h.mode {
		h.refs = append(h.refs, ref)
		return d.grantedNow(e, h.mode), nil, nil
	}
	// Upgrade request: grant in place if this family is the sole holder.
	if len(e.holders) == 1 {
		h.mode = o2pl.Write
		h.refs = append(h.refs, ref)
		return d.grantedNow(e, o2pl.Write), nil, nil
	}
	// Wait for the other reader families to drain.
	e.upgrades = append(e.upgrades, &upgradeWait{family: h.family, site: site, age: age, ref: ref})
	d.noteWaitersLocked(e)
	events, self := d.breakCyclesLocked(h.family)
	if self {
		d.dropUpgradeLocked(e, h.family)
		return AcquireResult{Status: DeadlockAbort}, events, nil
	}
	return AcquireResult{Status: Queued}, d.recallLocked(e, events), nil
}

// grantedNow builds a GrantedNow result with a page-map snapshot. Caller
// holds d.mu.
func (d *Directory) grantedNow(e *entry, mode o2pl.Mode) AcquireResult {
	return AcquireResult{
		Status:     GrantedNow,
		Mode:       mode,
		PageMap:    append([]PageLoc(nil), e.pageMap...),
		NumPages:   e.numPages,
		LastWriter: e.lastWriter,
	}
}

// dropUpgradeLocked removes a pending upgrade for family on e.
//
//lotec:noalloc
func (d *Directory) dropUpgradeLocked(e *entry, family ids.FamilyID) {
	for i, u := range e.upgrades {
		if u.family == family {
			e.upgrades = append(e.upgrades[:i], e.upgrades[i+1:]...)
			d.noteWaitersLocked(e)
			return
		}
	}
}
