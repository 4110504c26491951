package node

import (
	"errors"
	"fmt"

	"lotec/internal/core"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/pstore"
	"lotec/internal/schema"
	"lotec/internal/wire"
	"lotec/internal/xfer"
)

// acquire implements Algorithm 4.1 (LocalLockAcquisition) for transaction
// ts on obj: satisfied from the family's cached entry when possible, from a
// grant the directory left at this site when one is idle, forwarded to the
// GDO otherwise. On return the transaction holds the lock.
func (e *Engine) acquire(ts *txState, obj ids.ObjectID, mode o2pl.Mode) error {
	e.mu.Lock()
	if ts.fam.doomed != nil {
		defer e.mu.Unlock()
		return ts.fam.doomed
	}
	entry := ts.fam.entries[obj]
	if entry == nil {
		entry = e.takeRetainedLocked(ts.fam, obj)
	}
	if entry == nil {
		// "IF the object is not cached at this site THEN forward request to
		// GlobalLockAcquisition."
		e.mu.Unlock()
		return e.acquireGlobal(ts, obj, mode)
	}
	dec, waiter, err := entry.Acquire(ts.t, mode)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	switch dec {
	case o2pl.Granted:
		ts.involved[obj] = true
		e.mu.Unlock()
		if e.cfg.Rec != nil {
			e.cfg.Rec.AddLocalLockOp()
		}
		return nil
	case o2pl.Waiting:
		// "Link transaction onto local list."
		f := e.env.NewFuture()
		waiter.Data = f
		e.mu.Unlock()
		if e.cfg.Rec != nil {
			e.cfg.Rec.AddLocalLockOp()
		}
		if _, err := f.Wait(); err != nil {
			return err
		}
		e.mu.Lock()
		ts.involved[obj] = true
		doomed := ts.fam.doomed
		e.mu.Unlock()
		if doomed != nil {
			return doomed
		}
		return nil
	case o2pl.NeedGlobal:
		// Read→write upgrade: the family's global mode is too weak (so is a
		// retained grant's it has just taken: acquireGlobal adopts it).
		e.mu.Unlock()
		return e.acquireGlobal(ts, obj, mode)
	default:
		e.mu.Unlock()
		return fmt.Errorf("node: unexpected local decision %d", dec)
	}
}

// acquireGlobal performs the GlobalLockAcquisition exchange (Alg 4.2): RPC
// to the object's GDO home partition, parking on a future if queued. It
// also covers upgrades (the entry exists but at Read while Write is
// needed); a family running on a grant retained at this site asks as the
// adopter of that grant.
func (e *Engine) acquireGlobal(ts *txState, obj ids.ObjectID, mode o2pl.Mode) error {
	if e.cfg.Rec != nil {
		e.cfg.Rec.AddGlobalLockOp()
	}
	// Register the parking spot before the request leaves, so a grant that
	// races the "queued" reply is never lost.
	f := e.env.NewFuture()
	key := pendKey{obj: obj, tx: ts.t.ID()}
	e.mu.Lock()
	e.pending[key] = pendingReq{fut: f, tx: ts.t, mode: mode}
	age := ts.fam.age
	adopt, adopted := e.adoptingLocked(ts.fam, obj)
	e.mu.Unlock()
	clearPending := func() {
		e.mu.Lock()
		delete(e.pending, key)
		e.mu.Unlock()
	}

	if age == 0 {
		age = uint64(ts.t.Family())
	}
	reply, err := e.gdoCall(e.shardOf(obj), e.cfg.HomeFn(obj), &wire.AcquireReq{
		Obj:    obj,
		Ref:    ts.t.Ref(),
		Family: ts.t.Family(),
		Age:    age,
		Site:   e.self,
		Mode:   mode,
		Adopt:  adopt,
		Shard:  e.shardOf(obj),
	})
	if adopted != nil {
		adopted.Complete(nil, nil)
	}
	if err != nil {
		clearPending()
		return fmt.Errorf("global acquire of %v: %w", obj, siteErr(err))
	}
	resp, ok := reply.(*wire.AcquireResp)
	if !ok {
		clearPending()
		return fmt.Errorf("global acquire of %v: unexpected reply %T", obj, reply)
	}

	switch resp.Status {
	case gdo.GrantedNow:
		clearPending()
		return e.installGrantAndAcquire(ts, obj, mode, resp.Mode, resp.PageMap, resp.LastWriter)

	case gdo.Queued:
		// Park; the Grant (or deadlock Abort) handler completes the future.
		if _, err := f.Wait(); err != nil {
			return err
		}
		e.mu.Lock()
		ts.involved[obj] = true
		doomed := ts.fam.doomed
		e.mu.Unlock()
		if doomed != nil {
			return doomed
		}
		return nil

	case gdo.DeadlockAbort:
		clearPending()
		e.doomFamily(ts.fam, ErrDeadlockVictim)
		return ErrDeadlockVictim

	case gdo.Unregistered:
		clearPending()
		e.doomFamily(ts.fam, ErrNotRegistered)
		return ErrNotRegistered

	default:
		clearPending()
		return fmt.Errorf("global acquire of %v: unknown status %v", obj, resp.Status)
	}
}

// installGrantAndAcquire records a synchronous GDO grant locally and then
// acquires through the (possibly pre-existing) cached entry. A same-family
// sibling may already hold the entry in a conflicting mode, in which case
// the transaction waits locally.
func (e *Engine) installGrantAndAcquire(ts *txState, obj ids.ObjectID, want, granted o2pl.Mode, pageMap []gdo.PageLoc, lastWriter ids.NodeID) error {
	e.mu.Lock()
	entry := ts.fam.entries[obj]
	if entry == nil {
		entry = o2pl.NewEntry(obj, ts.t.Family(), granted)
		ts.fam.entries[obj] = entry
		ts.fam.meta[obj] = &entryMeta{pageMap: pageMap, lastWriter: lastWriter}
	} else {
		entry.SetGlobalMode(granted)
		if meta := ts.fam.meta[obj]; meta != nil && len(pageMap) > 0 {
			meta.pageMap = pageMap
			meta.lastWriter = lastWriter
		}
	}
	dec, waiter, err := entry.Acquire(ts.t, want)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	switch dec {
	case o2pl.Granted:
		ts.involved[obj] = true
		e.mu.Unlock()
		return nil
	case o2pl.Waiting:
		f := e.env.NewFuture()
		waiter.Data = f
		e.mu.Unlock()
		if _, err := f.Wait(); err != nil {
			return err
		}
		e.mu.Lock()
		ts.involved[obj] = true
		doomed := ts.fam.doomed
		e.mu.Unlock()
		if doomed != nil {
			return doomed
		}
		return nil
	default:
		e.mu.Unlock()
		return fmt.Errorf("node: unexpected decision %d after grant", dec)
	}
}

// doomFamily condemns a family; every subsequent operation fails fast and
// parked transactions are failed.
func (e *Engine) doomFamily(fam *famState, cause error) {
	e.mu.Lock()
	if fam.doomed == nil {
		fam.doomed = cause
	}
	e.mu.Unlock()
}

// transfer implements Algorithm 4.5 (TransferOfUpdatedPages) plus the
// protocol's fetch policy: compute which pages this acquisition must pull,
// group them by the site holding the newest copy, and gather them.
func (e *Engine) transfer(ts *txState, obj ids.ObjectID, layout *schema.Layout, m schema.Method) error {
	e.mu.Lock()
	meta := ts.fam.meta[obj]
	if meta == nil {
		// The family holds the lock but this engine never saw a page map —
		// possible only for objects granted before any transfer bookkeeping
		// existed; treat as nothing to fetch.
		e.mu.Unlock()
		return nil
	}
	predicted, err := layout.MethodReadPages(m.ID)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	in := e.fetchInputLocked(obj, layout, meta, predicted)
	proto := e.protocolForLocked(obj)
	plan := proto.FetchPlan(in)
	meta.fetched = true
	pageMap := meta.pageMap
	// Under a scattering protocol (LOTEC) each page comes from the site
	// holding its newest copy — possibly several sites; under COTEC/OTEC
	// the whole plan comes from the single last-updating site, which
	// always holds a complete current copy.
	single := meta.lastWriter
	if proto.GatherScattered() {
		single = ids.NoNode
	}
	e.mu.Unlock()

	if len(plan) == 0 {
		return nil
	}
	return siteErr(e.xfer.Fetch([]xfer.Want{{
		Obj:          obj,
		Pages:        plan,
		PageMap:      pageMap,
		Single:       single,
		VersionAware: proto.VersionAware(),
		Delta:        proto.DeltaEligible(),
	}}, false))
}

// fetchInputLocked assembles the protocol's view of the object at this
// site. Caller holds e.mu.
func (e *Engine) fetchInputLocked(obj ids.ObjectID, layout *schema.Layout, meta *entryMeta, predicted schema.PageSet) core.FetchInput {
	all := layout.AllPages()
	var stale, absent schema.PageSet
	for _, p := range all {
		if int(p) >= len(meta.pageMap) {
			continue
		}
		pid := ids.PageID{Object: obj, Page: p}
		v, resident := e.cfg.Store.PageVersion(pid)
		if !resident {
			stale = append(stale, p)
			absent = append(absent, p)
			continue
		}
		if v < meta.pageMap[p].Version {
			stale = append(stale, p)
		}
	}
	return core.FetchInput{
		All:             all,
		Predicted:       predicted,
		Stale:           stale,
		Absent:          absent,
		FirstSinceGrant: !meta.fetched,
	}
}

// ensureCurrent demand-fetches any of the given pages that are stale or
// absent relative to the grant-time page map. It is the §4.3 fallback ("If
// additional parts turn out to be needed, these can be fetched on demand")
// used for undeclared accesses in lenient mode and for missing-page reads.
func (e *Engine) ensureCurrent(ts *txState, obj ids.ObjectID, pages schema.PageSet) error {
	e.mu.Lock()
	meta := ts.fam.meta[obj]
	if meta == nil {
		e.mu.Unlock()
		return nil
	}
	var plan schema.PageSet
	for _, p := range pages {
		if int(p) >= len(meta.pageMap) {
			continue
		}
		pid := ids.PageID{Object: obj, Page: p}
		v, resident := e.cfg.Store.PageVersion(pid)
		if !resident || v < meta.pageMap[p].Version {
			plan = append(plan, p)
		}
	}
	pageMap := meta.pageMap
	delta := e.protocolForLocked(obj).DeltaEligible()
	e.mu.Unlock()
	if len(plan) == 0 {
		return nil
	}
	// Demand fetches always target the exact newest location per page,
	// version-aware regardless of protocol (the staleness test above
	// already consulted versions).
	return siteErr(e.xfer.Fetch([]xfer.Want{{
		Obj:          obj,
		Pages:        plan,
		PageMap:      pageMap,
		Single:       ids.NoNode,
		VersionAware: true,
		Delta:        delta,
	}}, true))
}

// pagesMissingError extracts a PageMissingError if err contains one.
func pagesMissingError(err error) (*pstore.PageMissingError, bool) {
	if err == nil {
		return nil, false // before errors.As, whose target escapes
	}
	var pm *pstore.PageMissingError
	if errors.As(err, &pm) {
		return pm, true
	}
	return nil, false
}
