package node

import (
	"lotec/internal/directory"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/transport"
	"lotec/internal/wire"
	"lotec/internal/xfer"
)

// Handle is the node's inbound message dispatcher; wire it as the Env's
// transport handler. It never blocks.
func (e *Engine) Handle(from ids.NodeID, m wire.Msg) wire.Msg {
	switch t := m.(type) {
	case *wire.Grant:
		e.handleGrant(t)
		return nil
	case *wire.Abort:
		e.handleAbort(t)
		return nil
	case *wire.Recall:
		e.handleRecall(t)
		return nil
	case *wire.MultiFetchReq:
		return xfer.ServeFetch(e.cfg.Store, e.cfg.Rec, t)
	case *wire.MultiPushReq:
		return xfer.ApplyPush(e.cfg.Store, e.cfg.Rec, t)
	case *wire.AcquireReq:
		return e.handleGDOAcquire(t)
	case *wire.ReleaseReq:
		return e.handleGDORelease(t)
	case *wire.CopySetReq:
		return e.handleGDOCopySet(t)
	default:
		return &wire.ErrResp{Msg: "node: unhandled message type"}
	}
}

// handleGrant processes a deferred lock grant: create (or upgrade) the
// family's cached entry, turn the granted request batch into local waiters,
// and wake the eligible ones — the site-side half of Alg 4.4's hand-off.
func (e *Engine) handleGrant(g *wire.Grant) {
	e.mu.Lock()
	fam := e.fams[g.Family]
	if fam == nil || fam.doomed != nil {
		// The family is gone (aborted while queued): hand the lock straight
		// back so no one waits on a ghost holder.
		e.mu.Unlock()
		e.handBack(g.Family, g.Obj, g.Shard)
		return
	}
	entry := fam.entries[g.Obj]
	if entry == nil {
		entry = o2pl.NewEntry(g.Obj, g.Family, g.Mode)
		fam.entries[g.Obj] = entry
		fam.meta[g.Obj] = &entryMeta{pageMap: g.PageMap, lastWriter: g.LastWriter}
	} else {
		entry.SetGlobalMode(g.Mode)
		if meta := fam.meta[g.Obj]; meta != nil && len(g.PageMap) > 0 {
			meta.pageMap = g.PageMap
			meta.lastWriter = g.LastWriter
		} else if meta == nil {
			fam.meta[g.Obj] = &entryMeta{pageMap: g.PageMap, lastWriter: g.LastWriter}
		}
	}
	for _, req := range g.Reqs {
		key := pendKey{obj: g.Obj, tx: req.Ref.Tx}
		p, ok := e.pending[key]
		if !ok {
			// The requester vanished (aborted); the family still holds the
			// lock and root release will free it.
			continue
		}
		delete(e.pending, key)
		entry.Enqueue(&o2pl.Waiter{Tx: p.tx, Mode: req.Mode, Data: p.fut})
	}
	granted := entry.GrantEligible()
	e.mu.Unlock()
	completeAll(granted, nil)
}

// handleAbort fails this site's parked requests for a deadlock-victim
// family and condemns the family.
func (e *Engine) handleAbort(a *wire.Abort) {
	e.mu.Lock()
	var futs []transport.Future
	for _, req := range a.Reqs {
		key := pendKey{obj: a.Obj, tx: req.Ref.Tx}
		if p, ok := e.pending[key]; ok {
			delete(e.pending, key)
			futs = append(futs, p.fut)
		}
	}
	if fam := e.fams[a.Family]; fam != nil && fam.doomed == nil {
		fam.doomed = ErrDeadlockVictim
	}
	e.mu.Unlock()
	for _, f := range futs {
		f.Complete(nil, ErrDeadlockVictim)
	}
}

// GDO-serving handlers (active when cfg.Dir is set).

func (e *Engine) handleGDOAcquire(req *wire.AcquireReq) wire.Msg {
	if e.cfg.Dir == nil {
		return &wire.ErrResp{Msg: "node: not a GDO host"}
	}
	resp, events, err := directory.ServeAcquire(e.cfg.Dir, req)
	if err != nil {
		return &wire.ErrResp{Msg: err.Error()}
	}
	e.routeEvents(events)
	return resp
}

func (e *Engine) handleGDORelease(req *wire.ReleaseReq) wire.Msg {
	if e.cfg.Dir == nil {
		return &wire.ErrResp{Msg: "node: not a GDO host"}
	}
	resp, events, err := directory.ServeRelease(e.cfg.Dir, req)
	if err != nil {
		return &wire.ErrResp{Msg: err.Error()}
	}
	e.routeEvents(events)
	return resp
}

func (e *Engine) handleGDOCopySet(req *wire.CopySetReq) wire.Msg {
	if e.cfg.Dir == nil {
		return &wire.ErrResp{Msg: "node: not a GDO host"}
	}
	sets := make([]wire.CopySet, 0, len(req.Objs))
	for _, obj := range req.Objs {
		sites, err := e.cfg.Dir.CopySet(obj)
		if err != nil {
			return &wire.ErrResp{Msg: err.Error()}
		}
		sets = append(sets, wire.CopySet{Obj: obj, Sites: sites})
	}
	return &wire.CopySetResp{Sets: sets}
}

// routeEvents ships deferred directory decisions to the affected sites:
// "Send the list pointed to by HolderPtr and the page map to the new
// holder's site" (Alg 4.4), plus deadlock-abort notifications and recalls.
func (e *Engine) routeEvents(events []gdo.Event) {
	for _, ev := range events {
		_ = e.env.Send(ev.Site, directory.EventMsg(ev))
	}
}
