package gdo

import (
	"fmt"
	"slices"

	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// ObjectRelease names one object being released by a family, with the dirty
// pages piggybacked on the release message ("Dirty page information may be
// piggybacked on each global lock release message", §4.1). Dirty is empty
// for aborts and read-only access.
type ObjectRelease struct {
	Obj   ids.ObjectID
	Dirty []ids.PageNum
}

// PageStamp reports the new version the directory assigned to one updated
// page, so the releasing site can restamp its local copy.
type PageStamp struct {
	Obj     ids.ObjectID
	Page    ids.PageNum
	Version uint64
}

// Release implements Algorithm 4.4 (GlobalLockRelease): family, executing at
// site, releases its holds on every object in rels, recording the releasing
// site as the location of each updated page and handing freed locks to the
// next waiting family (one family list per object, per the paper).
//
// The returned events carry deferred grants (and any deadlock aborts that
// surface as waiters are re-pointed at new holders); stamps carry the new
// page versions for the releasing site.
//
// commit changes nothing: the commit order is in the page versions. Release
// never leaves a lock at the releasing site: its caller has no way to tell
// the site. ReleaseKeep is the form that can.
func (d *Directory) Release(family ids.FamilyID, site ids.NodeID, commit bool, rels []ObjectRelease) ([]Event, []PageStamp, error) {
	events, stamps, _, err := d.ReleaseKeep(family, site, false, rels)
	return events, stamps, err
}

// ReleaseKeep is Release for a caller that reports the outcome to the
// releasing site. With keep set — the release is a committing one — and
// retention on, an object this release would leave free stays locked under
// the site's own family ID when the object's last grants all went to that
// site (see retain.go); kept lists those objects.
func (d *Directory) ReleaseKeep(family ids.FamilyID, site ids.NodeID, keep bool, rels []ObjectRelease) (events []Event, stamps []PageStamp, kept []ids.ObjectID, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	d.touchScr = d.touchScr[:0]
	for _, rel := range rels {
		e, ok := d.entries[rel.Obj]
		if !ok {
			return nil, nil, nil, fmt.Errorf("%w: %v", ErrUnknownObject, rel.Obj)
		}
		h := e.holder(family)
		if h == nil {
			// A family that ran on the grant its site retains releases the
			// site hold.
			h = e.holder(ids.SiteFamily(site))
		}
		if h == nil {
			return nil, nil, nil, fmt.Errorf("%w: %v releasing %v", ErrNotHolder, family, rel.Obj)
		}
		// "Record the NodeIdentifier of the updating site in the GDO for
		// each updated page."
		for _, p := range rel.Dirty {
			if int(p) < 0 || int(p) >= e.numPages {
				return nil, nil, nil, fmt.Errorf("%w: dirty page %v/p%d out of range", ErrBadRelease, rel.Obj, p)
			}
			if h.mode != o2pl.Write {
				return nil, nil, nil, fmt.Errorf("%w: %v dirtied %v under a read lock", ErrBadRelease, family, rel.Obj)
			}
			loc := &e.pageMap[p]
			loc.Node = site
			loc.Version++
			stamps = append(stamps, PageStamp{Obj: rel.Obj, Page: p, Version: loc.Version})
		}
		if len(rel.Dirty) > 0 {
			e.lastWriter = site
		}
		if keep && d.keepLocked(e, h) {
			h.family, h.refs = ids.SiteFamily(site), h.refs[:0]
			kept = append(kept, rel.Obj)
			continue
		}
		if ids.IsSiteFamily(family) {
			e.streak = 0 // the site handed an idle grant back
		}
		d.removeHolderLocked(e, h.family)
		d.touchScr = append(d.touchScr, e)
	}

	// Defensive: the family is finishing; drop any stale queued requests or
	// pending upgrades it left anywhere (none exist on clean paths).
	d.purgeFamilyLocked(family)

	for _, e := range d.touchScr {
		events = append(events, d.scheduleLocked(e)...)
	}
	return events, stamps, kept, nil
}

// scheduleLocked hands the lock of e to the next eligible party and returns
// the resulting events. Caller holds d.mu.
func (d *Directory) scheduleLocked(e *entry) []Event {
	var events []Event

	// A pending upgrade whose family is now the sole holder wins first.
	if len(e.holders) == 1 && len(e.upgrades) > 0 {
		h := e.holders[0]
		for i, u := range e.upgrades {
			if u.family == h.family {
				e.upgrades = append(e.upgrades[:i], e.upgrades[i+1:]...)
				d.noteWaitersLocked(e)
				h.mode = o2pl.Write
				h.refs = append(h.refs, u.ref)
				events = append(events, Event{
					Kind:       EventGrant,
					Obj:        e.obj,
					Family:     h.family,
					Site:       h.site,
					Mode:       o2pl.Write,
					Reqs:       []QueuedReq{{Ref: u.ref, Mode: o2pl.Write}},
					PageMap:    append([]PageLoc(nil), e.pageMap...),
					NumPages:   e.numPages,
					Upgrade:    true,
					LastWriter: e.lastWriter,
				})
				break
			}
		}
	}

	// "IF no other transaction is waiting for the lock THEN set LockState to
	// Free … ELSE unlink the next transaction list from NonHoldersPtr and
	// link onto HolderPtr; send the list … and the page map to the new
	// holder's site."
	if len(e.holders) == 0 && len(e.queues) > 0 {
		q := e.queues[0]
		e.queues = e.queues[1:]
		d.noteWaitersLocked(e)
		mode := o2pl.Read
		for _, r := range q.reqs {
			if r.Mode == o2pl.Write {
				mode = o2pl.Write
				break
			}
		}
		h := d.newHoldLocked(q.family, q.site, mode)
		for _, r := range q.reqs {
			h.refs = append(h.refs, r.Ref)
		}
		e.holders = append(e.holders, h)
		e.copySet[q.site] = true
		d.noteGrantLocked(e, q.site)
		events = append(events, Event{
			Kind:       EventGrant,
			Obj:        e.obj,
			Family:     q.family,
			Site:       q.site,
			Mode:       mode,
			Reqs:       q.reqs,
			PageMap:    append([]PageLoc(nil), e.pageMap...),
			NumPages:   e.numPages,
			LastWriter: e.lastWriter,
		})
	}

	return append(events, d.recheckQueuedLocked(e)...)
}

// recheckQueuedLocked runs deadlock detection for every family waiting on e
// after e gained a holder or had one renamed: pointing its waiters at the
// new holder can close waits-for cycles that enqueue-time detection could
// not see. (Upgraders only matter to a rename: a fresh holder is granted
// only when none is pending.) The family IDs are snapshotted (into reused
// scratch) because an abort may edit e.queues mid-sweep. Caller holds d.mu.
func (d *Directory) recheckQueuedLocked(e *entry) []Event {
	var events []Event
	d.famScr = d.famScr[:0]
	for _, q := range e.queues {
		d.famScr = append(d.famScr, q.family)
	}
	for _, u := range e.upgrades {
		d.famScr = append(d.famScr, u.family)
	}
	for _, f := range d.famScr {
		ev, self := d.breakCyclesLocked(f)
		events = append(events, ev...)
		if self {
			// With its waits gone f is on no cycle any more.
			events = append(events, d.abortVictimLocked(f)...)
		}
	}
	return events
}

// CancelRequest withdraws any queued requests and pending upgrades of
// family on obj (used when the engine unwinds a waiting transaction, e.g.
// on external abort). It reports whether anything was removed.
//
//lotec:noalloc
func (d *Directory) CancelRequest(obj ids.ObjectID, family ids.FamilyID) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[obj]
	if !ok {
		return false, fmt.Errorf("%w: %v", ErrUnknownObject, obj)
	}
	removed := false
	for i, q := range e.queues {
		if q.family == family {
			e.queues = append(e.queues[:i], e.queues[i+1:]...)
			removed = true
			break
		}
	}
	for i, u := range e.upgrades {
		if u.family == family {
			e.upgrades = append(e.upgrades[:i], e.upgrades[i+1:]...)
			removed = true
			break
		}
	}
	if removed {
		d.noteWaitersLocked(e)
	}
	return removed, nil
}

// waitEntriesSortedLocked returns the entries with queued requests or
// pending upgrades in ascending object order. Only waitObjs entries can
// contain a waiting family (noteWaitersLocked keeps the index exact), and
// sorting makes the purge/abort sweeps deterministic — iterating
// d.entries directly would visit (and, for aborts, emit events) in map
// order. The returned slice is the reused entScr scratch; it is valid only
// until the next call. Caller holds d.mu.
//
//lotec:noalloc
func (d *Directory) waitEntriesSortedLocked() []*entry {
	d.entScr = d.entScr[:0]
	for _, e := range d.waitObjs {
		d.entScr = append(d.entScr, e)
	}
	slices.SortFunc(d.entScr, cmpEntryObj)
	return d.entScr
}

// cmpEntryObj orders entries by object ID. Package-level rather than a
// closure so the noalloc sort call site stays literal-free.
//
//lotec:noalloc
func cmpEntryObj(a, b *entry) int {
	switch {
	case a.obj < b.obj:
		return -1
	case a.obj > b.obj:
		return 1
	}
	return 0
}

// purgeFamilyLocked silently removes family from every queue and upgrade
// list. Caller holds d.mu.
//
//lotec:noalloc
func (d *Directory) purgeFamilyLocked(family ids.FamilyID) {
	for _, e := range d.waitEntriesSortedLocked() {
		removed := false
		for i := 0; i < len(e.queues); i++ {
			if e.queues[i].family == family {
				e.queues = append(e.queues[:i], e.queues[i+1:]...)
				i--
				removed = true
			}
		}
		for i := 0; i < len(e.upgrades); i++ {
			if e.upgrades[i].family == family {
				e.upgrades = append(e.upgrades[:i], e.upgrades[i+1:]...)
				i--
				removed = true
			}
		}
		if removed {
			d.noteWaitersLocked(e)
		}
	}
}

// abortVictimLocked purges victim's waits everywhere and builds the abort
// events telling its site to fail the parked requests. Caller holds d.mu.
func (d *Directory) abortVictimLocked(victim ids.FamilyID) []Event {
	var events []Event
	for _, e := range d.waitEntriesSortedLocked() {
		for i := 0; i < len(e.queues); i++ {
			q := e.queues[i]
			if q.family != victim {
				continue
			}
			e.queues = append(e.queues[:i], e.queues[i+1:]...)
			i--
			events = append(events, Event{
				Kind:   EventDeadlockAbort,
				Obj:    e.obj,
				Family: victim,
				Site:   q.site,
				Reqs:   q.reqs,
			})
		}
		for i := 0; i < len(e.upgrades); i++ {
			u := e.upgrades[i]
			if u.family != victim {
				continue
			}
			e.upgrades = append(e.upgrades[:i], e.upgrades[i+1:]...)
			i--
			events = append(events, Event{
				Kind:   EventDeadlockAbort,
				Obj:    e.obj,
				Family: victim,
				Site:   u.site,
				Reqs:   []QueuedReq{{Ref: u.ref, Mode: o2pl.Write}},
			})
		}
		d.noteWaitersLocked(e)
	}
	return events
}
