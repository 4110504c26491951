package gdo

import (
	"fmt"

	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// Site-retained grants.
//
// The paper's lazy release keeps a lock inside a family until its root
// commits. A directory with retention on also keeps it at the *site* across
// roots: when a committing release would leave an object free that the same
// site has been granted several times running, the family's hold is renamed
// to the site's reserved family ID (ids.SiteFamily) instead of removed, and
// the release reply names the object kept. The site then grants the object
// to its next roots itself; each still sends its committing release — the
// commit point, which also carries the dirty-page stamps — so a repeat root
// costs one directory round trip instead of two.
//
// A site hold is an ordinary familyHold. Every rule about holders therefore
// applies to it unchanged: readers of other families share a Read site
// hold, a conflicting request queues behind it and waits-for edges point at
// it (it never waits, so it is on no cycle), Export and the op log carry it.
// Three things are particular to it:
//
//   - a request that queues behind it sends the site one EventRecall; the
//     site answers with a non-committing release under the site family ID
//     when no local family is using the grant, or adopts it for the family
//     that is;
//   - Adopt renames it to a family of its site, so that the waits-for graph
//     names the family the waiters really wait for and the family can
//     upgrade it through the ordinary upgrade path;
//   - a release by a family of its site of an object the family does not
//     hold itself is a release of the site hold: the family ran on it.

// KeepStreak is how many grants running an object must have gone to one
// site before a committing release leaves it there. It keeps objects that
// move between sites out of retention: a keep saves two frames when the
// same site comes back, and costs any other site a recall — four frames
// more than the acquire it would have been, and two more hops before its
// root can start. With roots placed at random on n sites a keep happens
// every n^(KeepStreak-1) grants. At 3 the benchmark's random-site workloads
// (n = 4) sent 2.4 % and 3.8 % more messages per commit; at 4 about 1 %
// more, but the open-loop one's p99 latency was still 9 % up (a root there
// takes five locks, so one in twelve met a recall); at 5 neither moves. A
// site that does keep using an object earns it four roots later than it
// would at 1.
const KeepStreak = 5

// SetRetainGrants turns site-retained grants on or off. It is a property of
// the deployment, set before the directory serves traffic: replicas of one
// shard must agree on it.
func (d *Directory) SetRetainGrants(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.retain = on
}

// RetainGrants reports whether site-retained grants are on.
func (d *Directory) RetainGrants() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.retain
}

// noteGrantLocked counts a fresh grant of e to a family at site towards the
// object's streak. Caller holds d.mu.
func (d *Directory) noteGrantLocked(e *entry, site ids.NodeID) {
	switch {
	case !d.retain:
	case e.streakSite != site:
		e.streakSite, e.streak = site, 1
	case e.streak < KeepStreak:
		e.streak++
	}
}

// recall returns the event that recalls the site hold on e, if there is
// one. There is at most one: it is created only when no other holder is
// left, and a later reader joins as a family.
func (e *entry) recall() (Event, bool) {
	for _, h := range e.holders {
		if ids.IsSiteFamily(h.family) {
			return Event{Kind: EventRecall, Obj: e.obj, Family: h.family, Site: h.site}, true
		}
	}
	return Event{}, false
}

// keepLocked decides whether the committing release of h, the last hold on
// e, leaves the lock with h's site. Caller holds d.mu.
func (d *Directory) keepLocked(e *entry, h *familyHold) bool {
	return d.retain && len(e.holders) == 1 && len(e.queues) == 0 && len(e.upgrades) == 0 &&
		e.streakSite == h.site && e.streak >= KeepStreak
}

// recallLocked appends the recall of e's site hold to events when the wait
// just added is the first on e; later waiters ride on that recall. Caller
// holds d.mu.
func (d *Directory) recallLocked(e *entry, events []Event) []Event {
	if len(e.queues)+len(e.upgrades) != 1 || (len(e.queues) == 1 && len(e.queues[0].reqs) != 1) {
		return events
	}
	if ev, ok := e.recall(); ok {
		events = append(events, ev)
	}
	return events
}

// PendingRecalls returns a recall for every site hold that has waiters, in
// object order. A promoted backup sends them again: the primary may have
// died between queueing a request and routing its recall.
func (d *Directory) PendingRecalls() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	var events []Event
	for _, e := range d.waitEntriesSortedLocked() {
		if ev, ok := e.recall(); ok {
			events = append(events, ev)
		}
	}
	return events
}

// Adopt is Acquire for a family running on the grant its site retains: the
// site hold on obj is first renamed to family, which then re-acquires as
// the holder it now is — a repeat grant at the held mode, an upgrade through
// the ordinary upgrade path beyond it. The families queued on obj are
// re-checked, since the holder they wait for now has waits of its own. An
// Adopt that finds no site hold of site, and no hold of family from an
// earlier one, changes nothing and reports NotAdopted.
func (d *Directory) Adopt(obj ids.ObjectID, ref ids.TxRef, family ids.FamilyID, age uint64, site ids.NodeID, mode o2pl.Mode) (AcquireResult, []Event, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[obj]
	if !ok {
		return AcquireResult{}, nil, fmt.Errorf("%w: %v", ErrUnknownObject, obj)
	}
	var events []Event
	h := e.holder(family)
	if h == nil {
		if h = e.holder(ids.SiteFamily(site)); h == nil {
			return AcquireResult{Status: NotAdopted}, nil, nil
		}
		h.family = family
		events = d.recheckQueuedLocked(e)
	}
	res, more, err := d.acquireHolding(e, h, ref, age, site, mode)
	return res, append(events, more...), err
}
