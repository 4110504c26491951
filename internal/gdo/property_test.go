package gdo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// dirWalk drives a Directory with random acquire/release traffic from many
// single-transaction families and checks global lock safety throughout.
type dirWalk struct {
	t   *testing.T
	d   *Directory
	obj []ids.ObjectID
	// holds[f] is the set of objects family f currently holds (granted
	// synchronously or via event), with the granted mode.
	holds map[ids.FamilyID]map[ids.ObjectID]o2pl.Mode
	// queued[f] marks families with an outstanding request.
	queued map[ids.FamilyID]bool
	nextF  uint64
}

// checkSafety: for every object, holders must be one writer xor N readers,
// mirrored exactly by the walk's own book-keeping.
func (w *dirWalk) checkSafety() bool {
	for _, obj := range w.obj {
		writers, readers := 0, 0
		for _, hs := range w.holds {
			switch hs[obj] {
			case o2pl.Write:
				writers++
			case o2pl.Read:
				readers++
			}
		}
		st, err := w.d.State(obj)
		if err != nil {
			w.t.Logf("state: %v", err)
			return false
		}
		switch {
		case writers > 1, writers == 1 && readers > 0:
			w.t.Logf("%v: %d writers, %d readers", obj, writers, readers)
			return false
		case writers == 1 && st != HeldWrite:
			w.t.Logf("%v: walk sees a writer, directory says %v", obj, st)
			return false
		case writers == 0 && readers > 0 && st != HeldRead:
			w.t.Logf("%v: walk sees readers, directory says %v", obj, st)
			return false
		}
		if rc, _ := w.d.ReadCount(obj); st == HeldRead && rc != readers {
			w.t.Logf("%v: ReadCount %d, walk sees %d readers", obj, rc, readers)
			return false
		}
	}
	return true
}

// apply processes deferred events: grants update the book-keeping, deadlock
// aborts drop the victim's state entirely (its held locks are released as a
// real engine would).
func (w *dirWalk) apply(events []Event) bool {
	for _, ev := range events {
		switch ev.Kind {
		case EventGrant:
			if !w.queued[ev.Family] && !ev.Upgrade {
				w.t.Logf("grant for un-queued family %v", ev.Family)
				return false
			}
			delete(w.queued, ev.Family)
			hs := w.holds[ev.Family]
			if hs == nil {
				hs = map[ids.ObjectID]o2pl.Mode{}
				w.holds[ev.Family] = hs
			}
			hs[ev.Obj] = ev.Mode
		case EventDeadlockAbort:
			delete(w.queued, ev.Family)
			// The victim's engine aborts the root: release all its holds.
			if hs, ok := w.holds[ev.Family]; ok {
				var rels []ObjectRelease
				for obj := range hs {
					rels = append(rels, ObjectRelease{Obj: obj})
				}
				delete(w.holds, ev.Family)
				if len(rels) > 0 {
					evs, _, err := w.d.Release(ev.Family, 1, false, rels)
					if err != nil {
						w.t.Logf("victim release: %v", err)
						return false
					}
					if !w.apply(evs) {
						return false
					}
				}
			}
		}
	}
	return true
}

// TestDirectoryRandomWalkSafety: lock safety and grant/queue consistency
// hold across random multi-family traffic, including deadlock resolutions.
func TestDirectoryRandomWalkSafety(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := &dirWalk{
			t:      t,
			d:      New(4),
			holds:  map[ids.FamilyID]map[ids.ObjectID]o2pl.Mode{},
			queued: map[ids.FamilyID]bool{},
		}
		for i := 0; i < 4; i++ {
			obj := ids.ObjectID(i)
			if err := w.d.Register(obj, 2, 1); err != nil {
				return false
			}
			w.obj = append(w.obj, obj)
		}
		var families []ids.FamilyID
		newFamily := func() ids.FamilyID {
			w.nextF++
			f := ids.FamilyID(w.nextF)
			families = append(families, f)
			return f
		}
		for i := 0; i < 6; i++ {
			newFamily()
		}

		for _, op := range opsRaw {
			fam := families[rng.Intn(len(families))]
			switch op % 3 {
			case 0: // acquire a random object, unless already waiting
				if w.queued[fam] {
					continue
				}
				obj := w.obj[rng.Intn(len(w.obj))]
				mode := o2pl.Read
				if op%2 == 0 {
					mode = o2pl.Write
				}
				if cur := w.holds[fam][obj]; cur >= mode {
					continue // nothing new to request
				}
				ref := ids.TxRef{Tx: ids.TxID(uint64(fam)*1000 + uint64(op)), Node: 1}
				res, evs, err := w.d.Acquire(obj, ref, fam, uint64(fam), 1, mode)
				if err != nil {
					w.t.Logf("acquire: %v", err)
					return false
				}
				switch res.Status {
				case GrantedNow:
					hs := w.holds[fam]
					if hs == nil {
						hs = map[ids.ObjectID]o2pl.Mode{}
						w.holds[fam] = hs
					}
					hs[obj] = res.Mode
				case Queued:
					w.queued[fam] = true
				case DeadlockAbort:
					// Requester aborts: release everything it held.
					if hs, ok := w.holds[fam]; ok {
						var rels []ObjectRelease
						for o := range hs {
							rels = append(rels, ObjectRelease{Obj: o})
						}
						delete(w.holds, fam)
						if len(rels) > 0 {
							evs2, _, err := w.d.Release(fam, 1, false, rels)
							if err != nil {
								return false
							}
							if !w.apply(evs2) {
								return false
							}
						}
					}
				}
				if !w.apply(evs) {
					return false
				}
			case 1: // commit: release everything the family holds
				if w.queued[fam] {
					continue // single outstanding request per family
				}
				hs, ok := w.holds[fam]
				if !ok || len(hs) == 0 {
					continue
				}
				var rels []ObjectRelease
				for obj, mode := range hs {
					rel := ObjectRelease{Obj: obj}
					if mode == o2pl.Write && op%2 == 0 {
						rel.Dirty = []ids.PageNum{0}
					}
					rels = append(rels, rel)
				}
				delete(w.holds, fam)
				evs, _, err := w.d.Release(fam, 1, true, rels)
				if err != nil {
					w.t.Logf("release: %v", err)
					return false
				}
				if !w.apply(evs) {
					return false
				}
				// The family is finished; replace it with a fresh one.
				for i, f2 := range families {
					if f2 == fam {
						families[i] = newFamily()
						break
					}
				}
			default: // spawn extra families to churn the ID space
				if len(families) < 10 {
					newFamily()
				}
			}
			if !w.checkSafety() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryEventualGrant: after all holders release, every queued
// family has been granted or aborted — nothing is forgotten in the queues.
func TestDirectoryEventualGrant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(2)
		if err := d.Register(1, 2, 1); err != nil {
			return false
		}
		// One writer holds; k families queue with random modes.
		if _, _, err := d.Acquire(1, ids.TxRef{Tx: 1, Node: 1}, 1, 1, 1, o2pl.Write); err != nil {
			return false
		}
		waiting := map[ids.FamilyID]bool{}
		for i := 0; i < 2+rng.Intn(5); i++ {
			fam := ids.FamilyID(10 + i)
			mode := o2pl.Read
			if rng.Intn(2) == 0 {
				mode = o2pl.Write
			}
			res, _, err := d.Acquire(1, ids.TxRef{Tx: ids.TxID(100 + i), Node: 2}, fam, uint64(fam), 2, mode)
			if err != nil || res.Status != Queued {
				return false
			}
			waiting[fam] = true
		}
		// Drain: release the writer, then keep releasing whoever gets
		// granted until the queues empty.
		current := []ids.FamilyID{1}
		for steps := 0; steps < 100 && len(current) > 0; steps++ {
			fam := current[0]
			current = current[1:]
			evs, _, err := d.Release(fam, 1, true, []ObjectRelease{{Obj: 1}})
			if err != nil {
				return false
			}
			for _, ev := range evs {
				if ev.Kind == EventGrant {
					delete(waiting, ev.Family)
					current = append(current, ev.Family)
				}
				if ev.Kind == EventDeadlockAbort {
					delete(waiting, ev.Family)
				}
			}
		}
		return len(waiting) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// retainWalk drives a Directory that has retention on the way sites would:
// a family whose site retains an idle grant runs on it with no directory
// call, upgrades it with Adopt, and commits with ReleaseKeep; a recall is
// answered at once, by hand-back when the grant is idle and by Adopt for
// the family running on it. The walk keeps its own books and checks them
// against the directory's after every step.
type retainWalk struct {
	t   *testing.T
	d   *Directory
	rng *rand.Rand
	obj []ids.ObjectID
	// holds[f] are the objects family f holds at the directory under its own
	// ID; runs[f] are those it runs on its site's retained grant.
	holds  map[ids.FamilyID]map[ids.ObjectID]o2pl.Mode
	runs   map[ids.FamilyID]map[ids.ObjectID]bool
	queued map[ids.FamilyID]bool
	// kept[obj] is the grant a site retains: its mode and the local family
	// running on it (0 when idle).
	kept map[ids.ObjectID]*keptGrant
	done []ids.FamilyID // finished families, for late adopts

	keeps, recalls, handBacks, adopts, upgrades, lateAdopts int
}

type keptGrant struct {
	site ids.NodeID
	mode o2pl.Mode
	user ids.FamilyID
}

// siteOf spreads families over two sites unevenly, so that runs of grants
// to one site — what retention needs — are common.
func siteOf(f ids.FamilyID) ids.NodeID {
	if f%4 == 0 {
		return 2
	}
	return 1
}

func (w *retainWalk) hold(f ids.FamilyID, obj ids.ObjectID, mode o2pl.Mode) {
	if w.holds[f] == nil {
		w.holds[f] = map[ids.ObjectID]o2pl.Mode{}
	}
	w.holds[f][obj] = mode
}

// adopted moves obj from the grant f's site retains to f's own holds: what
// an Adopt that found the site hold has done at the directory.
func (w *retainWalk) adopted(f ids.FamilyID, obj ids.ObjectID) {
	w.hold(f, obj, w.kept[obj].mode)
	delete(w.runs[f], obj)
	delete(w.kept, obj)
}

// abort releases everything f holds or runs on, as the engine of an aborted
// root does.
func (w *retainWalk) abort(f ids.FamilyID) bool {
	delete(w.queued, f)
	var rels []ObjectRelease
	for _, obj := range w.obj {
		if _, ok := w.holds[f][obj]; ok {
			rels = append(rels, ObjectRelease{Obj: obj})
		}
		if w.runs[f][obj] {
			rels = append(rels, ObjectRelease{Obj: obj})
			delete(w.kept, obj)
		}
	}
	delete(w.holds, f)
	delete(w.runs, f)
	if len(rels) == 0 {
		return true
	}
	evs, _, kept, err := w.d.ReleaseKeep(f, siteOf(f), false, false, rels)
	if err != nil || len(kept) > 0 {
		w.t.Logf("abort release of %v: kept %v, err %v", f, kept, err)
		return false
	}
	return w.apply(evs)
}

func (w *retainWalk) apply(events []Event) bool {
	for _, ev := range events {
		switch ev.Kind {
		case EventGrant:
			if !w.queued[ev.Family] {
				w.t.Logf("grant of %v for un-queued family %v", ev.Obj, ev.Family)
				return false
			}
			delete(w.queued, ev.Family)
			w.hold(ev.Family, ev.Obj, ev.Mode)
		case EventDeadlockAbort:
			if !w.abort(ev.Family) {
				return false
			}
		case EventRecall:
			w.recalls++
			k := w.kept[ev.Obj]
			switch {
			case k == nil: // handed back already: a site ignores it
			case k.site != ev.Site || ev.Family != ids.SiteFamily(k.site):
				w.t.Logf("recall of %v names %v/%v, the grant is at %v", ev.Obj, ev.Site, ev.Family, k.site)
				return false
			case k.user == 0:
				w.handBacks++
				delete(w.kept, ev.Obj)
				evs, _, _, err := w.d.ReleaseKeep(ev.Family, ev.Site, false, false, []ObjectRelease{{Obj: ev.Obj}})
				if err != nil {
					w.t.Logf("hand-back of %v: %v", ev.Obj, err)
					return false
				}
				if !w.apply(evs) {
					return false
				}
			default:
				w.adopts++
				f := k.user
				res, evs, err := w.d.Adopt(ev.Obj, ids.TxRef{Tx: f, Node: k.site}, f, uint64(f), k.site, k.mode)
				if err != nil || res.Status != GrantedNow || res.Mode != k.mode {
					w.t.Logf("adopt of %v for %v: %+v, %v", ev.Obj, f, res, err)
					return false
				}
				w.adopted(f, ev.Obj)
				if !w.apply(evs) {
					return false
				}
			}
		}
	}
	return true
}

// acquire is one lock request of family f, made the way its site would.
func (w *retainWalk) acquire(f ids.FamilyID, obj ids.ObjectID, mode o2pl.Mode) bool {
	site := siteOf(f)
	ref := ids.TxRef{Tx: ids.TxID(uint64(f)*1000 + uint64(w.rng.Intn(1000))), Node: site}
	k := w.kept[obj]
	if k != nil && k.site == site && k.user == 0 {
		k.user = f // idle and ours: no message
		if w.runs[f] == nil {
			w.runs[f] = map[ids.ObjectID]bool{}
		}
		w.runs[f][obj] = true
		if k.mode >= mode {
			return true
		}
	}
	var res AcquireResult
	var evs []Event
	var err error
	if k != nil && k.user == f {
		w.upgrades++
		res, evs, err = w.d.Adopt(obj, ref, f, uint64(f), site, mode)
		if res.Status != NotAdopted {
			w.adopted(f, obj) // the rename comes before the upgrade's outcome
		}
	} else {
		res, evs, err = w.d.Acquire(obj, ref, f, uint64(f), site, mode)
	}
	if err != nil {
		w.t.Logf("acquire of %v by %v: %v", obj, f, err)
		return false
	}
	switch res.Status {
	case GrantedNow:
		w.hold(f, obj, res.Mode)
	case Queued:
		w.queued[f] = true
	case DeadlockAbort:
		if !w.abort(f) {
			return false
		}
	default:
		w.t.Logf("acquire of %v by %v: status %v", obj, f, res.Status)
		return false
	}
	return w.apply(evs)
}

// commit releases everything f holds or runs on with a committing release
// and books what the directory left at f's site.
func (w *retainWalk) commit(f ids.FamilyID) bool {
	site := siteOf(f)
	modes := map[ids.ObjectID]o2pl.Mode{}
	for obj, mode := range w.holds[f] {
		modes[obj] = mode
	}
	for obj := range w.runs[f] {
		modes[obj] = w.kept[obj].mode
		delete(w.kept, obj)
	}
	delete(w.holds, f)
	delete(w.runs, f)
	w.done = append(w.done, f)
	if len(modes) == 0 {
		return true
	}
	var rels []ObjectRelease
	for _, obj := range w.obj { // in object order: a seed replays exactly
		mode, ok := modes[obj]
		if !ok {
			continue
		}
		rel := ObjectRelease{Obj: obj}
		if mode == o2pl.Write && w.rng.Intn(2) == 0 {
			rel.Dirty = []ids.PageNum{0}
		}
		rels = append(rels, rel)
	}
	evs, _, kept, err := w.d.ReleaseKeep(f, site, true, true, rels)
	if err != nil {
		w.t.Logf("commit of %v: %v", f, err)
		return false
	}
	for _, obj := range kept {
		w.keeps++
		w.kept[obj] = &keptGrant{site: site, mode: modes[obj]}
	}
	return w.apply(evs)
}

// lateAdopt sends an Adopt from a finished family for an object its site
// does not retain — the request that lost the race with the hand-back or
// with the family's own release — and requires it to change nothing.
func (w *retainWalk) lateAdopt() bool {
	if len(w.done) == 0 {
		return true
	}
	f := w.done[w.rng.Intn(len(w.done))]
	obj := w.obj[w.rng.Intn(len(w.obj))]
	if k := w.kept[obj]; k != nil && k.site == siteOf(f) {
		return true
	}
	w.lateAdopts++
	before := w.d.Export()
	res, evs, err := w.d.Adopt(obj, ids.TxRef{Tx: f, Node: siteOf(f)}, f, uint64(f), siteOf(f), o2pl.Write)
	if err != nil || res.Status != NotAdopted || len(evs) > 0 || string(w.d.Export()) != string(before) {
		w.t.Logf("late adopt of %v by %v: %+v, %d events, %v", obj, f, res, len(evs), err)
		return false
	}
	return true
}

// check compares the directory's holder lists with the walk's books and
// asserts the site-hold invariants.
func (w *retainWalk) check() bool {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	for _, obj := range w.obj {
		e := w.d.entries[obj]
		siteHolds, writers := 0, 0
		for _, h := range e.holders {
			if h.mode == o2pl.Write {
				writers++
			}
			if !ids.IsSiteFamily(h.family) {
				if w.holds[h.family][obj] != h.mode {
					w.t.Logf("%v: directory has %v holding %v, the walk %v", obj, h.family, h.mode, w.holds[h.family][obj])
					return false
				}
				continue
			}
			siteHolds++
			k := w.kept[obj]
			if k == nil || h.family != ids.SiteFamily(k.site) || h.site != k.site || h.mode != k.mode {
				w.t.Logf("%v: site hold %v/%v, the walk has %+v", obj, h.site, h.mode, k)
				return false
			}
		}
		if siteHolds > 1 || (w.kept[obj] != nil) != (siteHolds == 1) {
			w.t.Logf("%v: %d site holds, the walk keeps %+v", obj, siteHolds, w.kept[obj])
			return false
		}
		if writers > 0 && len(e.holders) > 1 {
			w.t.Logf("%v: a writer among %d holders", obj, len(e.holders))
			return false
		}
		for f, hs := range w.holds {
			if _, ok := hs[obj]; ok && e.holder(f) == nil {
				w.t.Logf("%v: the walk has %v holding it, the directory does not", obj, f)
				return false
			}
		}
	}
	return true
}

// roundTrip requires Export → Import → Export to be the identity, which
// carries the site holds and the streaks that decide the next keep.
func (w *retainWalk) roundTrip() bool {
	snap := w.d.Export()
	back, err := Import(snap)
	if err != nil {
		w.t.Logf("import: %v", err)
		return false
	}
	if !back.RetainGrants() || string(back.Export()) != string(snap) {
		w.t.Logf("export → import → export is not the identity")
		return false
	}
	return true
}

// TestDirectoryRetentionWalk: with retention on, random multi-site traffic
// keeps every site-hold invariant, the directory agrees with the sites'
// books after every step, and once every family has finished and every
// recall is answered no request is left waiting.
func TestDirectoryRetentionWalk(t *testing.T) {
	total := &retainWalk{}
	for seed := int64(1); seed <= 40; seed++ {
		w := &retainWalk{
			t:      t,
			d:      New(2),
			rng:    rand.New(rand.NewSource(seed)),
			holds:  map[ids.FamilyID]map[ids.ObjectID]o2pl.Mode{},
			runs:   map[ids.FamilyID]map[ids.ObjectID]bool{},
			queued: map[ids.FamilyID]bool{},
			kept:   map[ids.ObjectID]*keptGrant{},
		}
		w.d.SetRetainGrants(true)
		for i := 0; i < 3; i++ {
			if err := w.d.Register(ids.ObjectID(i), 2, 1); err != nil {
				t.Fatal(err)
			}
			w.obj = append(w.obj, ids.ObjectID(i))
		}
		next := ids.FamilyID(0)
		live := []ids.FamilyID{}
		for len(live) < 4 {
			next++
			live = append(live, next)
		}
		ok := true
		for step := 0; step < 400 && ok; step++ {
			i := w.rng.Intn(len(live))
			f := live[i]
			switch op := w.rng.Intn(10); {
			case op < 5:
				if w.queued[f] {
					continue
				}
				obj := w.obj[w.rng.Intn(len(w.obj))]
				mode := o2pl.Mode(1 + w.rng.Intn(2))
				cur := w.holds[f][obj]
				if w.runs[f][obj] {
					cur = w.kept[obj].mode
				}
				if cur >= mode {
					continue
				}
				ok = w.acquire(f, obj, mode)
				if _, alive := w.holds[f]; !alive && !w.queued[f] && len(w.runs[f]) == 0 {
					next++
					live[i] = next // aborted or never held anything: a retry is a new family
				}
			case op < 9:
				if w.queued[f] {
					continue
				}
				ok = w.commit(f)
				next++
				live[i] = next
			default:
				ok = w.lateAdopt()
			}
			ok = ok && w.check()
			if step%50 == 0 {
				ok = ok && w.roundTrip()
			}
		}
		// Drain: every family that can finish does, until none is left.
		for round := 0; round < 20 && ok; round++ {
			for f := ids.FamilyID(1); f <= next && ok; f++ {
				if !w.queued[f] && len(w.holds[f])+len(w.runs[f]) > 0 {
					ok = w.commit(f)
				}
			}
		}
		if !ok {
			t.Fatalf("seed %d failed", seed)
		}
		if len(w.queued) > 0 || w.d.HasWaiters() {
			t.Fatalf("seed %d: families %v still wait after the drain:\n%s", seed, w.queued, w.d.DebugDump())
		}
		if !w.check() || !w.roundTrip() {
			t.Fatalf("seed %d failed after the drain", seed)
		}
		total.keeps += w.keeps
		total.recalls += w.recalls
		total.handBacks += w.handBacks
		total.adopts += w.adopts
		total.upgrades += w.upgrades
		total.lateAdopts += w.lateAdopts
	}
	t.Logf("keeps %d, recalls %d (hand-backs %d, adopts %d), upgrades by adopt %d, late adopts %d",
		total.keeps, total.recalls, total.handBacks, total.adopts, total.upgrades, total.lateAdopts)
	if total.keeps == 0 || total.handBacks == 0 || total.adopts == 0 || total.upgrades == 0 || total.lateAdopts == 0 {
		t.Fatal("the walk never reached one of the retention paths")
	}
}
