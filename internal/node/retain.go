package node

import (
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/transport"
	"lotec/internal/wire"
)

// Site-retained grants, the site's half of gdo/retain.go.
//
// When a committing release reply names an object kept, the directory has
// left the lock with this site under the site's own family ID. The next
// root here that wants the object installs its lock entry from the retained
// grant — no message — and still sends its committing release, which the
// directory takes as a release of the site hold and, if nothing else wants
// the object, answers with another keep. A site retains only what the
// directory told it to; there is no setting here.
//
// A Recall says a request elsewhere is queued behind the site hold. An idle
// grant is handed back with a non-committing release under the site family
// ID. One in use is adopted for the family using it, so that the directory
// — and its deadlock detector — see that family as the holder; the
// family's own release then follows the adopt's reply, never overtakes it
// (an Adopt arriving after it could rename a later site hold to a dead
// family). A family whose release is already on its way is left alone: the
// reply will say whether the grant came back, and if it did it is handed
// back at once. The same mark covers a recall that overtakes the reply
// naming the object kept in the first place.

// retainedGrant is one object's entry in Engine.retained.
type retainedGrant struct {
	// mode is the site hold's mode; 0 marks an entry that holds no grant,
	// only the recall of one not known yet.
	mode o2pl.Mode
	// pageMap and lastWriter are the directory's as of the release that
	// kept the grant: nothing can have changed them since. The slice is the
	// entry's own and is lent to the family running on the grant.
	pageMap    []gdo.PageLoc
	lastWriter ids.NodeID
	// user is the local family running on the grant, nil when idle.
	user *famState
	// releasing: user's release of the object has been decided; the reply
	// settles the entry.
	releasing bool
	// recalled: hand the grant back as soon as it is idle and known.
	recalled bool
	// adopt is set once an Adopt for user has been sent and completes with
	// its reply.
	adopt transport.Future
}

// takeRetainedLocked installs fam's lock entry for obj from the grant
// retained here, if there is one and no local family is using it, exactly
// as a synchronous grant from the directory would have: a fresh entry whose
// first transfer is still to come. Another local family's use of the grant
// is not waited for here — the request goes to the directory, which queues
// it behind the site hold and recalls, so the wait is one its deadlock
// detector sees. Caller holds e.mu.
func (e *Engine) takeRetainedLocked(fam *famState, obj ids.ObjectID) *o2pl.Entry {
	rg := e.retained[obj]
	if rg == nil || rg.user != nil || rg.mode == 0 {
		return nil
	}
	rg.user = fam
	entry := o2pl.NewEntry(obj, fam.root.Family(), rg.mode)
	fam.entries[obj] = entry
	fam.meta[obj] = &entryMeta{pageMap: rg.pageMap, lastWriter: rg.lastWriter}
	return entry
}

// adoptingLocked reports whether fam's directory request for obj must go as
// an Adopt — fam runs on the grant retained here — and, when it is the
// first such request, the future to complete once it has been answered.
// Caller holds e.mu.
func (e *Engine) adoptingLocked(fam *famState, obj ids.ObjectID) (adopt bool, answered transport.Future) {
	rg := e.retained[obj]
	if rg == nil || rg.user != fam || rg.releasing {
		// (A grant fam is already releasing is asked for again like any
		// other: the request queues behind the release, or follows it.)
		return false, nil
	}
	if rg.adopt == nil {
		rg.adopt = e.env.NewFuture()
		answered = rg.adopt
	}
	return true, answered
}

// releasingLocked marks the grants fam runs on among objs as being
// released, which stops a recall from adopting them, and returns the adopts
// already sent for them: the release must wait for their replies. Caller
// holds e.mu.
func (e *Engine) releasingLocked(fam *famState, objs []ids.ObjectID) (adopts []transport.Future) {
	if len(e.retained) == 0 {
		return nil
	}
	for _, obj := range objs {
		if rg := e.retained[obj]; rg != nil && rg.user == fam {
			rg.releasing = true
			if rg.adopt != nil {
				adopts = append(adopts, rg.adopt)
			}
		}
	}
	return adopts
}

func waitAll(fs []transport.Future) {
	for _, f := range fs {
		_, _ = f.Wait()
	}
}

// settleRelease brings e.retained up to date with a finished release of
// objs by fam: an object the reply named kept is retained — fam's grant-time
// page map plus its own predicted stamps is the directory's page map now —
// unless a recall is already waiting for it; any other grant fam ran on is
// gone.
func (e *Engine) settleRelease(fam *famState, objs []ids.ObjectID, predicted []gdo.PageStamp, kept []ids.ObjectID) {
	var back []ids.ObjectID
	e.mu.Lock()
	if len(kept) == 0 && len(e.retained) == 0 {
		e.mu.Unlock()
		return
	}
	for _, obj := range objs {
		rg := e.retained[obj]
		if !containsObj(kept, obj) {
			if rg != nil && rg.user == fam {
				delete(e.retained, obj)
			}
			continue
		}
		entry, meta := fam.entries[obj], fam.meta[obj]
		if entry == nil || meta == nil || (rg != nil && rg.recalled) {
			delete(e.retained, obj)
			back = append(back, obj)
			continue
		}
		if rg == nil {
			rg = new(retainedGrant)
			e.retained[obj] = rg
		}
		*rg = retainedGrant{
			mode:       entry.GlobalMode(),
			pageMap:    append(rg.pageMap[:0], meta.pageMap...),
			lastWriter: meta.lastWriter,
		}
		for _, st := range predicted {
			if st.Obj == obj && int(st.Page) < len(rg.pageMap) {
				rg.pageMap[st.Page] = gdo.PageLoc{Node: e.self, Version: st.Version}
				rg.lastWriter = e.self
			}
		}
	}
	e.mu.Unlock()
	for _, obj := range back {
		e.handBack(ids.SiteFamily(e.self), obj, e.shardOf(obj))
	}
}

func containsObj(objs []ids.ObjectID, obj ids.ObjectID) bool {
	for _, o := range objs {
		if o == obj {
			return true
		}
	}
	return false
}

// handBack returns a lock nobody here will use to the directory with a
// non-committing release: a grant that arrived for a family already gone,
// or a recalled site hold (family is then the site's own ID).
func (e *Engine) handBack(family ids.FamilyID, obj ids.ObjectID, shard int32) {
	rel := &wire.ReleaseReq{
		Family: family,
		Site:   e.self,
		Shard:  shard,
		Rels:   []gdo.ObjectRelease{{Obj: obj}},
	}
	if e.cfg.Route != nil {
		// Handlers must not block; the routed hand-back needs its own
		// proc for the adopt-and-retry loop.
		e.env.Go(func() { _, _ = e.cfg.Route.Call(int(shard), rel) })
	} else {
		_ = e.env.Send(e.cfg.HomeFn(obj), rel)
	}
}

// handleRecall answers the directory's recall of the grant retained on
// r.Obj. It never blocks. A recall repeated after its answer costs at most
// one needless hand-back: it leaves the mark of an early one.
func (e *Engine) handleRecall(r *wire.Recall) {
	e.mu.Lock()
	rg := e.retained[r.Obj]
	switch {
	case rg == nil:
		// Not known here: handed back already, or the recall overtook the
		// release reply that will name the object kept. Leave the mark that
		// sends such a reply's grant straight back.
		e.retained[r.Obj] = &retainedGrant{recalled: true}
	case rg.mode == 0:
		// The mark is there already.
	case rg.user == nil:
		delete(e.retained, r.Obj)
		e.mu.Unlock()
		e.handBack(r.Family, r.Obj, r.Shard)
		return
	case rg.releasing:
		rg.recalled = true
	case rg.adopt == nil:
		fam, answered := rg.user, e.env.NewFuture()
		rg.adopt = answered
		age := fam.age
		if age == 0 {
			age = uint64(fam.root.Family())
		}
		req := &wire.AcquireReq{
			Obj:    r.Obj,
			Ref:    fam.root.Ref(),
			Family: fam.root.Family(),
			Age:    age,
			Site:   e.self,
			Mode:   rg.mode,
			Adopt:  true,
			Shard:  r.Shard,
		}
		e.mu.Unlock()
		if e.cfg.Rec != nil {
			e.cfg.Rec.AddGlobalLockOp()
		}
		e.env.Go(func() {
			// Whatever the answer, the directory has seen the request by
			// now or never will: the family's release may follow.
			_, _ = e.gdoCall(r.Shard, e.cfg.HomeFn(r.Obj), req)
			answered.Complete(nil, nil)
		})
		return
	}
	e.mu.Unlock()
}
