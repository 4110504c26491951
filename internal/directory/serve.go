package directory

import (
	"lotec/internal/gdo"
	"lotec/internal/wire"
)

// The wire form of the lock service, shared by every front door that serves
// it (the engine's co-located directory, the TCP directory server, the
// replicated host): what a request asks of a Service, what the reply
// carries back, and which message delivers a deferred decision.

// ServeAcquire applies an AcquireReq to svc — as an Adopt when the request
// says so — and builds the reply.
func ServeAcquire(svc Service, req *wire.AcquireReq) (*wire.AcquireResp, []gdo.Event, error) {
	op := svc.Acquire
	if req.Adopt {
		op = svc.Adopt
	}
	res, events, err := op(req.Obj, req.Ref, req.Family, req.Age, req.Site, req.Mode)
	if err != nil {
		return nil, nil, err
	}
	return &wire.AcquireResp{
		Obj:        req.Obj,
		Status:     res.Status,
		Mode:       res.Mode,
		NumPages:   int32(res.NumPages),
		LastWriter: res.LastWriter,
		Shard:      req.Shard,
		PageMap:    res.PageMap,
	}, events, nil
}

// ServeRelease applies a ReleaseReq to svc and builds the reply. A
// committing release may leave locks at the releasing site; the reply names
// them.
func ServeRelease(svc Service, req *wire.ReleaseReq) (*wire.ReleaseResp, []gdo.Event, error) {
	events, stamps, kept, err := svc.ReleaseKeep(req.Family, req.Site, req.Commit, req.Rels)
	if err != nil {
		return nil, nil, err
	}
	return &wire.ReleaseResp{Shard: req.Shard, Stamps: stamps, Kept: kept}, events, nil
}

// EventMsg builds the one-way message that delivers a deferred directory
// decision to ev.Site: "Send the list pointed to by HolderPtr and the page
// map to the new holder's site" (Alg 4.4), a deadlock-abort notification,
// or the recall of a site-retained grant.
func EventMsg(ev gdo.Event) wire.Msg {
	switch ev.Kind {
	case gdo.EventGrant:
		return &wire.Grant{
			Obj:        ev.Obj,
			Family:     ev.Family,
			Mode:       ev.Mode,
			Upgrade:    ev.Upgrade,
			NumPages:   int32(ev.NumPages),
			LastWriter: ev.LastWriter,
			Shard:      ev.Shard,
			Reqs:       ev.Reqs,
			PageMap:    ev.PageMap,
		}
	case gdo.EventDeadlockAbort:
		return &wire.Abort{
			Obj:    ev.Obj,
			Family: ev.Family,
			Shard:  ev.Shard,
			Reqs:   ev.Reqs,
		}
	case gdo.EventRecall:
		return &wire.Recall{Obj: ev.Obj, Family: ev.Family, Shard: ev.Shard}
	default:
		return nil
	}
}
