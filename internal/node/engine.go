// Package node implements a LOTEC site runtime: the engine that executes
// nested object transactions at one node and drives the whole protocol —
// local lock acquisition and release (Alg 4.1/4.3 via package o2pl), global
// operations against the GDO (Alg 4.2/4.4 via messages), the transfer of
// updated pages (Alg 4.5), demand fetches, undo, and root-commit/abort
// processing with automatic deadlock-victim retry.
//
// The engine is transport-agnostic: under transport.SimNet it reproduces
// the paper's deterministic simulation; under the TCP transport (package
// server) the identical code runs a real distributed system.
package node

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"lotec/internal/core"
	"lotec/internal/directory"
	"lotec/internal/gdo"
	"lotec/internal/history"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/pstore"
	"lotec/internal/schema"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/txn"
	"lotec/internal/wire"
	"lotec/internal/xfer"
)

// Engine errors.
var (
	// ErrDeadlockVictim marks a family aborted by the GDO's deadlock
	// resolution; Run retries such roots automatically.
	ErrDeadlockVictim = errors.New("node: family aborted as deadlock victim")
	// ErrUnknownObject is returned for operations on unregistered objects.
	ErrUnknownObject = errors.New("node: unknown object")
	// ErrUnknownMethod is returned when no body is registered for a method.
	ErrUnknownMethod = errors.New("node: no body registered for method")
	// ErrUndeclaredAccess is returned in strict mode when a method touches
	// an attribute outside its declared access sets — the conservative
	// prediction contract of §3.5 would be violated.
	ErrUndeclaredAccess = errors.New("node: access outside declared attribute set")
	// ErrNotRegistered marks a family aborted because the directory did not
	// know an object yet: over TCP its owner registers it one-way, and a
	// root at another site can reach the directory first. Run retries such
	// roots as it retries deadlock victims.
	ErrNotRegistered = errors.New("node: object not yet registered with the directory")
	// ErrRetriesExhausted is returned by Run when a root keeps being
	// aborted with a retryable cause (ErrDeadlockVictim, ErrNotRegistered);
	// it wraps the last attempt's error.
	ErrRetriesExhausted = errors.New("node: retries exhausted")
	// ErrSiteUnreachable marks a root aborted because a home site or page
	// source stopped answering (every transport-level retry timed out).
	// The root is rolled back through the normal abort path — shadow-page
	// undo plus lock hand-back — instead of hanging on the dead peer.
	ErrSiteUnreachable = errors.New("node: site unreachable")
)

// siteErr maps transport-level delivery failures (timeout, retries
// exhausted) to ErrSiteUnreachable so callers can distinguish "the
// network gave up" from protocol errors; other errors pass through.
func siteErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, transport.ErrUnreachable) || errors.Is(err, transport.ErrTimeout) {
		return errors.Join(ErrSiteUnreachable, err)
	}
	return err
}

// Config assembles an Engine.
type Config struct {
	// Env is the node's transport endpoint.
	Env transport.Env
	// Store is the node's paged memory.
	Store *pstore.Store
	// Schemas holds every class and layout.
	Schemas *schema.Registry
	// Methods maps class methods to Go bodies.
	Methods *MethodTable
	// Manager issues transactions. Share one across nodes in-process; give
	// each node a disjoint-namespace manager over TCP.
	Manager *txn.Manager
	// Protocol is the default consistency protocol.
	Protocol core.Protocol
	// ProtocolOverrides selects a different protocol per class — the §6
	// future-work extension ("different consistency protocols … on a
	// per-class basis"). Every node of a deployment must configure the
	// same overrides.
	ProtocolOverrides map[ids.ClassID]core.Protocol
	// HomeFn maps an object to the node hosting its GDO partition.
	HomeFn func(ids.ObjectID) ids.NodeID
	// ShardFn maps an object to its directory shard. All nodes of a
	// deployment must agree with the directory's own placement; nil means
	// a single-shard directory (every object on shard 0).
	ShardFn func(ids.ObjectID) int
	// Dir, when non-nil, makes this node serve GDO requests from Dir: the
	// co-located simulator's engines share one directory, and each serves
	// the objects HomeFn homes at it.
	Dir *gdo.Directory
	// Route, when non-nil, sends every GDO request through the replicated
	// control plane's placement map instead of HomeFn: calls go to the
	// shard's current primary, stale-epoch rejections re-aim, and an
	// unreachable primary triggers client-driven backup promotion.
	Route *directory.RouteTable
	// Rec records the message trace and counters; may be nil.
	Rec *stats.Recorder
	// MaxRetries bounds the retries of a root (default 50).
	MaxRetries int
	// Strict rejects accesses outside declared sets (the paper's
	// conservative-compiler contract). When false, undeclared accesses are
	// allowed and satisfied by demand fetches (the §4.3 fallback),
	// modelling imperfect prediction.
	Strict bool
	// DeltaOff disables sub-page delta transfers (the -delta=off escape
	// hatch): fetches carry no base versions and pushes stage only full
	// pages, making the wire traffic byte-identical to the pre-delta data
	// plane. Dirty-range journaling in the store stays on either way — it is
	// invisible to the trace.
	DeltaOff bool
	// History, when non-nil, is handed the record of every family whose
	// root commits here, for package history to order. The simulator sets
	// it; a deployment leaves it nil and pays nothing.
	History func(history.Record)
}

// pendKey identifies one transaction's outstanding global request.
type pendKey struct {
	obj ids.ObjectID
	tx  ids.TxID
}

// pendingReq is a parked global acquisition.
type pendingReq struct {
	fut  transport.Future
	tx   *txn.Txn
	mode o2pl.Mode
}

// entryMeta is the consistency-side companion of a lock entry: the page map
// snapshot sent with the grant and the transfer bookkeeping.
type entryMeta struct {
	pageMap    []gdo.PageLoc
	lastWriter ids.NodeID // single gather source for COTEC/OTEC
	fetched    bool       // a FirstSinceGrant transfer has run
}

// famState is everything the engine tracks for one local family.
type famState struct {
	root    *txn.Txn
	age     uint64 // stable deadlock priority (first attempt's root TxID)
	entries map[ids.ObjectID]*o2pl.Entry
	meta    map[ids.ObjectID]*entryMeta
	doomed  error
}

// txState is the engine-side state of one [sub-]transaction.
type txState struct {
	t        *txn.Txn
	fam      *famState
	parent   *txState
	undo     pstore.UndoLog
	involved map[ids.ObjectID]bool // objects whose locks this tx holds or retains
}

// Engine is one site's protocol runtime. All public methods are safe for
// concurrent use by multiple transaction procs.
type Engine struct {
	cfg  Config
	env  transport.Env
	self ids.NodeID
	xfer *xfer.Engine // the Alg 4.5 data plane

	mu       sync.Mutex
	objClass map[ids.ObjectID]ids.ClassID    // guarded by mu
	fams     map[ids.FamilyID]*famState      // guarded by mu
	pending  map[pendKey]pendingReq          // guarded by mu
	retained map[ids.ObjectID]*retainedGrant // guarded by mu; grants the directory left here (retain.go)
}

// New creates an Engine and installs its message handler on the Env's
// transport (via the returned Handler — the caller wires it, since
// transports differ).
func New(cfg Config) (*Engine, error) {
	if cfg.Env == nil || cfg.Store == nil || cfg.Schemas == nil || cfg.Methods == nil ||
		cfg.Manager == nil || cfg.Protocol == nil || cfg.HomeFn == nil {
		return nil, errors.New("node: incomplete config")
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 50
	}
	return &Engine{
		cfg:  cfg,
		env:  cfg.Env,
		self: cfg.Env.Self(),
		xfer: &xfer.Engine{
			Env:      cfg.Env,
			Store:    cfg.Store,
			Rec:      cfg.Rec,
			DeltaOff: cfg.DeltaOff,
		},
		objClass: make(map[ids.ObjectID]ids.ClassID),
		fams:     make(map[ids.FamilyID]*famState),
		pending:  make(map[pendKey]pendingReq),
		retained: make(map[ids.ObjectID]*retainedGrant),
	}, nil
}

// Self returns the node's ID.
func (e *Engine) Self() ids.NodeID { return e.self }

// shardOf resolves an object's directory shard for outgoing lock messages.
func (e *Engine) shardOf(obj ids.ObjectID) int32 {
	if e.cfg.ShardFn == nil {
		return 0
	}
	return int32(e.cfg.ShardFn(obj))
}

// gdoCall sends a GDO request: through the replicated control plane's route
// table when configured (the shard's current primary, wherever the placement
// map says it lives), else directly to the static home node.
func (e *Engine) gdoCall(shard int32, home ids.NodeID, m wire.Msg) (wire.Msg, error) {
	if e.cfg.Route != nil {
		return e.cfg.Route.Call(int(shard), m)
	}
	return e.env.Call(home, m)
}

// Protocol returns the default consistency protocol.
func (e *Engine) Protocol() core.Protocol { return e.cfg.Protocol }

// protocolFor resolves the protocol governing an object (per-class
// override, else the default).
func (e *Engine) protocolFor(obj ids.ObjectID) core.Protocol {
	if len(e.cfg.ProtocolOverrides) == 0 {
		return e.cfg.Protocol
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.protocolForLocked(obj)
}

// protocolForLocked is protocolFor for callers already holding e.mu.
func (e *Engine) protocolForLocked(obj ids.ObjectID) core.Protocol {
	if cid, ok := e.objClass[obj]; ok {
		if p, ok := e.cfg.ProtocolOverrides[cid]; ok {
			return p
		}
	}
	return e.cfg.Protocol
}

// RegisterObject makes an object of the given class known to this node.
// The owner node additionally creates all pages at version 1, matching the
// GDO's initial page map; they keep no delta journal until they first
// leave it (pstore.Store.Create).
func (e *Engine) RegisterObject(obj ids.ObjectID, class ids.ClassID, owner ids.NodeID) error {
	layout, err := e.cfg.Schemas.Layout(class)
	if err != nil {
		return err
	}
	if err := e.cfg.Store.Register(obj, layout.NumPages()); err != nil {
		return err
	}
	e.mu.Lock()
	e.objClass[obj] = class
	e.mu.Unlock()
	if owner == e.self {
		return e.cfg.Store.Create(obj, 1)
	}
	return nil
}

// classOf resolves an object's class and layout.
func (e *Engine) classOf(obj ids.ObjectID) (*schema.Class, *schema.Layout, error) {
	e.mu.Lock()
	cid, ok := e.objClass[obj]
	e.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %v", ErrUnknownObject, obj)
	}
	cls, err := e.cfg.Schemas.Class(cid)
	if err != nil {
		return nil, nil, err
	}
	layout, err := e.cfg.Schemas.Layout(cid)
	if err != nil {
		return nil, nil, err
	}
	return cls, layout, nil
}

// Run executes one root transaction: invoke method on obj, retrying if the
// family is chosen as a deadlock victim or finds an object not yet
// registered (bounded by MaxRetries, with a linearly growing backoff so the
// competing family can finish or the registration arrive).
func (e *Engine) Run(obj ids.ObjectID, method string, arg []byte) ([]byte, ids.FamilyID, error) {
	var lastErr error
	var age uint64 // stable deadlock priority across retries (first root's TxID)
	for attempt := 0; attempt <= e.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if e.cfg.Rec != nil {
				e.cfg.Rec.AddRetry()
			}
			e.env.Sleep(time.Duration(attempt) * 100 * time.Microsecond)
		}
		res, fam, err := e.invokeRoot(obj, method, arg, &age)
		if err == nil {
			return res, fam, nil
		}
		lastErr = err
		if !errors.Is(err, ErrDeadlockVictim) && !errors.Is(err, ErrNotRegistered) {
			return nil, fam, err
		}
	}
	return nil, 0, fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, e.cfg.MaxRetries, lastErr)
}

// invokeRoot runs one root attempt, reporting the family it used. age is
// assigned from the first attempt's root TxID and then kept stable.
func (e *Engine) invokeRoot(obj ids.ObjectID, method string, arg []byte, age *uint64) ([]byte, ids.FamilyID, error) {
	res, fam, err := e.invokeInner(nil, obj, method, arg, age)
	return res, fam, err
}

// InvokeSpec names one child invocation for parallel execution.
type InvokeSpec struct {
	Obj    ids.ObjectID
	Method string
	Arg    []byte
}

// InvokeResult is one parallel child's outcome.
type InvokeResult struct {
	Out []byte
	Err error
}

// invokeParallel runs several sub-transactions of parent concurrently, one
// proc each, and joins them. This is the intra-family concurrency §3.3/§4.3
// of the paper permits ("it is also possible to have concurrent operations
// on a single object but only within a single transaction family"); as the
// paper prescribes, ordering correctness *between siblings* is the
// programmer's responsibility — siblings that acquire overlapping objects
// in opposite orders can deadlock the family, since intra-family waits are
// invisible to the GDO's detector.
func (e *Engine) invokeParallel(parent *txState, calls []InvokeSpec) []InvokeResult {
	results := make([]InvokeResult, len(calls))
	futures := make([]transport.Future, len(calls))
	for i := range calls {
		i := i
		f := e.env.NewFuture()
		futures[i] = f
		call := calls[i]
		e.env.Go(func() {
			out, err := e.invoke(parent, call.Obj, call.Method, call.Arg)
			results[i] = InvokeResult{Out: out, Err: err}
			f.Complete(nil, nil)
		})
	}
	for _, f := range futures {
		_, _ = f.Wait()
	}
	return results
}

// invoke runs one method invocation as a [sub-]transaction: acquire the
// object's lock (mode W when the method declares writes), transfer pages
// per the protocol, run the body, then pre-commit (or commit at the root)
// or abort.
func (e *Engine) invoke(parent *txState, obj ids.ObjectID, method string, arg []byte) ([]byte, error) {
	res, _, err := e.invokeInner(parent, obj, method, arg, nil)
	return res, err
}

// invokeInner is invoke plus the family identity of the transaction it ran.
func (e *Engine) invokeInner(parent *txState, obj ids.ObjectID, method string, arg []byte, age *uint64) ([]byte, ids.FamilyID, error) {
	cls, layout, err := e.classOf(obj)
	if err != nil {
		return nil, 0, err
	}
	m, err := cls.MethodByName(method)
	if err != nil {
		return nil, 0, err
	}
	body, err := e.cfg.Methods.lookup(cls.ID, m.ID)
	if err != nil {
		return nil, 0, err
	}

	ts, err := e.beginTx(parent)
	if err != nil {
		return nil, 0, err
	}
	if age != nil {
		if *age == 0 {
			*age = uint64(ts.t.ID())
		}
		ts.fam.age = *age
	}
	fam := ts.t.Family()

	mode := o2pl.Read
	if len(m.Writes) > 0 {
		mode = o2pl.Write
	}
	if err := e.acquire(ts, obj, mode); err != nil {
		e.abortTx(ts)
		return nil, fam, e.decorate(ts, err)
	}
	if err := e.transfer(ts, obj, layout, m); err != nil {
		e.abortTx(ts)
		return nil, fam, e.decorate(ts, err)
	}

	ctx := &Ctx{eng: e, ts: ts, obj: obj, cls: cls, layout: layout, method: m, arg: arg}
	if err := body(ctx); err != nil {
		e.abortTx(ts)
		return nil, fam, e.decorate(ts, err)
	}

	// Both ends look at the family's doom in the critical section they open
	// anyway: a condemned family aborts instead.
	if ts.t.IsRoot() {
		doomed, err := e.commitRoot(ts)
		if doomed != nil {
			e.abortTx(ts)
			return nil, fam, doomed
		}
		if err != nil {
			return nil, fam, err
		}
	} else if err := e.preCommit(ts); err != nil {
		e.abortTx(ts)
		return nil, fam, e.decorate(ts, err)
	}
	return ctx.result, fam, nil
}

// decorate prefers the family's doom cause over a derived error, so
// deadlock victims surface as ErrDeadlockVictim at the root.
func (e *Engine) decorate(ts *txState, err error) error {
	if doomed := e.doomOf(ts); doomed != nil {
		return doomed
	}
	return err
}

// doomOf returns the family's doom error, if condemned.
func (e *Engine) doomOf(ts *txState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return ts.fam.doomed
}

// beginTx creates the txState (and famState for roots).
func (e *Engine) beginTx(parent *txState) (*txState, error) {
	if parent == nil {
		t := e.cfg.Manager.Begin(e.self)
		fam := &famState{
			root:    t,
			entries: make(map[ids.ObjectID]*o2pl.Entry),
			meta:    make(map[ids.ObjectID]*entryMeta),
		}
		ts := &txState{
			t: t, fam: fam,
			involved: make(map[ids.ObjectID]bool),
		}
		e.mu.Lock()
		e.fams[t.Family()] = fam
		e.mu.Unlock()
		return ts, nil
	}
	if doomed := e.doomOf(parent); doomed != nil {
		return nil, doomed
	}
	t, err := e.cfg.Manager.BeginChild(parent.t)
	if err != nil {
		return nil, err
	}
	return &txState{
		t: t, fam: parent.fam, parent: parent,
		involved: make(map[ids.ObjectID]bool),
	}, nil
}

// preCommit applies rule 3 of §4.1: the parent inherits and retains every
// lock the transaction holds or retains; the undo log merges into the
// parent's so an ancestor abort still rolls everything back. A transaction
// of a condemned family does not pre-commit: the doom is returned instead.
func (e *Engine) preCommit(ts *txState) error {
	e.mu.Lock()
	if doomed := ts.fam.doomed; doomed != nil {
		e.mu.Unlock()
		return doomed
	}
	var wake []*o2pl.Waiter
	// Sorted: PreCommit's grant hand-offs schedule wake-ups whose order is
	// part of the deterministic trace.
	for _, obj := range sortedObjKeys(ts.involved) {
		if entry := ts.fam.entries[obj]; entry != nil {
			wake = append(wake, entry.PreCommit(ts.t)...)
		}
		ts.parent.involved[obj] = true
	}
	// Still under e.mu: parallel siblings (InvokeAll) may pre-commit into
	// the same parent concurrently, and UndoLog is not otherwise locked.
	ts.undo.MergeInto(&ts.parent.undo)
	e.mu.Unlock()

	err := e.cfg.Manager.PreCommit(ts.t)
	// Wake the granted siblings even when the manager refuses the
	// pre-commit: the locks were already handed off under e.mu above, and
	// a parked waiter nobody completes is lost forever — the family's
	// abort path only wakes waiters still registered on entries.
	completeAll(wake, nil)
	return err
}

// abortTx applies rule 4 of §4.1 plus Alg 4.3's abort cases: undo the
// transaction's (and its pre-committed descendants') effects, then release
// each involved lock — back to a retaining ancestor if one exists, else to
// the GDO.
func (e *Engine) abortTx(ts *txState) {
	if e.cfg.Rec != nil && ts.t.IsRoot() {
		e.cfg.Rec.AddAbort()
	}
	// UNDO before lock release: no one may observe partial state.
	ts.undo.Undo(e.cfg.Store)

	e.mu.Lock()
	var wake []*o2pl.Waiter
	var releaseGlobal []ids.ObjectID
	// Sorted: Abort's grant hand-offs wake siblings in an order the trace
	// observes.
	for _, obj := range sortedObjKeys(ts.involved) {
		entry := ts.fam.entries[obj]
		if entry == nil {
			continue
		}
		out := entry.Abort(ts.t)
		wake = append(wake, out.Granted...)
		if out.ReleaseGlobal {
			releaseGlobal = append(releaseGlobal, obj)
			delete(ts.fam.entries, obj)
			delete(ts.fam.meta, obj)
		}
	}
	fam := ts.fam
	root := ts.t.IsRoot()
	if root {
		// A grant that arrived after the family was doomed creates an entry
		// no transaction ever held; the root abort must hand those back too.
		released := make(map[ids.ObjectID]bool, len(releaseGlobal))
		for _, obj := range releaseGlobal {
			released[obj] = true
		}
		for _, obj := range sortedObjKeys(fam.entries) {
			if !released[obj] && fam.entries[obj].Idle() {
				releaseGlobal = append(releaseGlobal, obj)
				delete(fam.entries, obj)
				delete(fam.meta, obj)
			}
		}
		delete(e.fams, ts.t.Family())
	}
	adopts := e.releasingLocked(fam, releaseGlobal)
	e.mu.Unlock()

	_ = e.cfg.Manager.Abort(ts.t)
	completeAll(wake, nil)

	// Alg 4.3: "ELSE /* not retained by an ancestor */ Forward request to
	// GlobalLockRelease /* no dirty page info */".
	sort.Slice(releaseGlobal, func(i, j int) bool { return releaseGlobal[i] < releaseGlobal[j] })
	waitAll(adopts)
	// Abort is best-effort, like Manager.Abort above: the local state is
	// already torn down, and a lost release is recovered by GDO timeout.
	_, _ = e.releaseGlobal(fam, releaseGlobal, nil, false, nil)
}

// commitRoot applies rule 5 of §4.1 / Alg 4.4: release every lock the
// family holds or retains, piggybacking the dirty-page info, then restamp
// local copies with the directory-assigned versions. Under RC, dirty pages
// are pushed to all caching sites first.
//
// A family condemned by the time its root gets here has not committed:
// doomed reports the cause, nothing has been done, and the caller aborts.
func (e *Engine) commitRoot(ts *txState) (doomed, err error) {
	e.mu.Lock()
	fam := ts.fam
	if fam.doomed != nil {
		e.mu.Unlock()
		return fam.doomed, nil
	}
	objs := sortedObjKeys(fam.entries)
	dirty := make(map[ids.ObjectID][]ids.PageNum, len(objs))
	for _, obj := range objs {
		dirty[obj] = e.cfg.Store.DirtyPages(obj)
	}
	var rec history.Record
	if e.cfg.History != nil {
		rec = e.grantedLocked(fam, objs) // before a retained grant's page map moves on
	}
	delete(e.fams, ts.t.Family())
	adopts := e.releasingLocked(fam, objs)
	e.mu.Unlock()

	// Restamp dirty pages to version+1 and clear their dirty flags *before*
	// the release leaves: the directory assigns exactly +1 per committing
	// release, and the next holder may be granted — and may fetch from, or
	// even run at, this site — the instant the GDO processes the release,
	// before its reply returns here. The reply's stamps are verified
	// against this prediction below.
	predicted, err := e.restampDirty(objs, dirty)
	if err != nil {
		return nil, err
	}
	for _, obj := range objs {
		e.cfg.Store.ClearDirty(obj, dirty[obj])
	}

	var pushObjs []ids.ObjectID
	for _, obj := range objs {
		if e.protocolFor(obj).PushOnRelease() {
			pushObjs = append(pushObjs, obj)
		}
	}
	if len(pushObjs) > 0 {
		if err := e.pushUpdates(pushObjs, dirty); err != nil {
			return nil, fmt.Errorf("rc push: %w", err)
		}
	}
	waitAll(adopts)
	stamps, err := e.releaseGlobal(fam, objs, dirty, true, predicted)
	if err != nil {
		return nil, err
	}
	ts.undo.Discard()
	if err := e.cfg.Manager.CommitRoot(ts.t); err != nil {
		return nil, err
	}
	if e.cfg.Rec != nil {
		e.cfg.Rec.AddCommit()
	}
	if e.cfg.History != nil {
		for _, st := range stamps {
			h := &rec.Holds[sort.Search(len(objs), func(i int) bool { return objs[i] >= st.Obj })]
			h.Wrote = append(h.Wrote, history.Stamp{Page: int32(st.Page), Version: st.Version})
		}
		e.cfg.History(rec)
	}
	return nil, nil
}

// grantedLocked starts fam's history record: the mode it holds each of objs
// in (o2pl and history number the modes alike) and the page versions it was
// granted. Caller holds e.mu.
func (e *Engine) grantedLocked(fam *famState, objs []ids.ObjectID) history.Record {
	rec := history.Record{Family: uint64(fam.root.Family()), Holds: make([]history.Hold, len(objs))}
	for i, obj := range objs {
		pm := fam.meta[obj].pageMap
		rec.Holds[i] = history.Hold{Obj: int64(obj), Mode: history.Mode(fam.entries[obj].GlobalMode()), Seen: make([]uint64, len(pm))}
		for p, loc := range pm {
			rec.Holds[i].Seen[p] = loc.Version
		}
	}
	return rec
}

// restampDirty advances each dirty page's local version by one and returns
// the predicted stamps in release order: objs ascending, each object's dirty
// pages as listed.
func (e *Engine) restampDirty(objs []ids.ObjectID, dirty map[ids.ObjectID][]ids.PageNum) ([]gdo.PageStamp, error) {
	var predicted []gdo.PageStamp
	for _, obj := range objs {
		for _, p := range dirty[obj] {
			pid := ids.PageID{Object: obj, Page: p}
			v, ok := e.cfg.Store.PageVersion(pid)
			if !ok {
				return nil, fmt.Errorf("node: dirty page %v not resident at commit", pid)
			}
			if err := e.cfg.Store.SetPageVersion(pid, v+1); err != nil {
				return nil, err
			}
			predicted = append(predicted, gdo.PageStamp{Obj: obj, Page: p, Version: v + 1})
		}
	}
	return predicted, nil
}

// releaseGlobal sends GlobalLockRelease for the given objects, batched per
// GDO home partition, and verifies the returned page versions against the
// site's prediction. dirty may be nil (abort path). With cfg.History set it
// returns the stamps the replies carried.
//
// The committing release is the commit point: it carries the page stamps
// and the keeps. Its batches are independent; none has to be first, because
// no directory keeps a commit order — the page versions are the order.
//
// Whatever the replies say the directory left with this site is settled
// into e.retained before returning (retain.go).
func (e *Engine) releaseGlobal(fam *famState, objs []ids.ObjectID, dirty map[ids.ObjectID][]ids.PageNum, commit bool, predicted []gdo.PageStamp) ([]gdo.PageStamp, error) {
	kept, stamps, err := e.sendReleases(fam, objs, dirty, commit, predicted)
	e.settleRelease(fam, objs, predicted, kept)
	return stamps, err
}

// sendReleases is the messaging of releaseGlobal; kept collects what the
// replies name as left with this site.
func (e *Engine) sendReleases(fam *famState, objs []ids.ObjectID, dirty map[ids.ObjectID][]ids.PageNum, commit bool, predicted []gdo.PageStamp) (kept []ids.ObjectID, stamps []gdo.PageStamp, _ error) {
	if len(objs) == 0 {
		return nil, nil, nil
	}
	// One batch per (home node, directory shard), so the GDO host hands each
	// straight to the owning partition; routed, the shard alone addresses it.
	type dest struct {
		home  ids.NodeID
		shard int32
	}
	destOf := func(obj ids.ObjectID) dest {
		if e.cfg.Route != nil {
			return dest{ids.NoNode, e.shardOf(obj)}
		}
		return dest{e.cfg.HomeFn(obj), e.shardOf(obj)}
	}
	family := fam.root.Family()
	var verifyErr error
	next := 0 // predicted[next:] is where the next reply's stamps should begin
	send := func(d dest, rels []gdo.ObjectRelease) error {
		if e.cfg.Rec != nil {
			e.cfg.Rec.AddGlobalLockOp()
		}
		reply, err := e.gdoCall(d.shard, d.home, &wire.ReleaseReq{
			Family: family,
			Site:   e.self,
			Commit: commit,
			Shard:  d.shard,
			Rels:   rels,
		})
		if err != nil {
			return fmt.Errorf("global release to %v: %w", d.home, siteErr(err))
		}
		resp, ok := reply.(*wire.ReleaseResp)
		if !ok {
			return fmt.Errorf("global release to %v: unexpected reply %T", d.home, reply)
		}
		if kept == nil {
			kept = resp.Kept
		} else {
			kept = append(kept, resp.Kept...)
		}
		if e.cfg.History != nil {
			stamps = append(stamps, resp.Stamps...)
		}
		for _, st := range resp.Stamps {
			var want uint64 // 0: a page the site did not dirty
			if i, ok := findStamp(predicted, next, st.Obj, st.Page); ok {
				want, next = predicted[i].Version, i+1
			}
			if want != st.Version {
				// An invariant violation — but keep releasing the remaining
				// homes so the cluster is not left wedged, then report.
				verifyErr = errors.Join(verifyErr, fmt.Errorf(
					"node: GDO stamped %v as v%d, site predicted v%d", ids.PageID{Object: st.Obj, Page: st.Page}, st.Version, want))
			}
		}
		return nil
	}

	// Sorted by destination, the batches are contiguous runs; the sort is
	// stable, so each batch keeps object order, and it is a single pass over
	// the releases of a one-destination root.
	rels := make([]gdo.ObjectRelease, len(objs))
	for i, obj := range objs {
		rels[i] = gdo.ObjectRelease{Obj: obj, Dirty: dirty[obj]}
	}
	slices.SortStableFunc(rels, func(a, b gdo.ObjectRelease) int {
		da, db := destOf(a.Obj), destOf(b.Obj)
		return cmp.Or(cmp.Compare(da.home, db.home), cmp.Compare(da.shard, db.shard))
	})
	for start := 0; start < len(rels); {
		d := destOf(rels[start].Obj)
		end := start + 1
		for end < len(rels) && destOf(rels[end].Obj) == d {
			end++
		}
		if err := send(d, rels[start:end]); err != nil {
			return kept, stamps, err
		}
		start = end
	}
	return kept, stamps, verifyErr
}

// findStamp returns the index in predicted of the stamp for page of obj. It
// looks from index from onwards first: a reply lists its stamps in release
// order, as predicted does, so the one sought is normally the first looked
// at.
func findStamp(predicted []gdo.PageStamp, from int, obj ids.ObjectID, page ids.PageNum) (int, bool) {
	for k := range predicted {
		i := (from + k) % len(predicted)
		if predicted[i].Obj == obj && predicted[i].Page == page {
			return i, true
		}
	}
	return 0, false
}

// pushUpdates implements the RC extension: send every dirty page to every
// other site caching the object, acknowledged, before the lock release.
// The xfer pipeline batches the copy-set lookups per GDO home and the
// pushes per destination site, across objects.
func (e *Engine) pushUpdates(objs []ids.ObjectID, dirty map[ids.ObjectID][]ids.PageNum) error {
	// One delta decision per batch: deltas only when every pushed object's
	// protocol is delta-eligible (in practice they all are — only RC pushes).
	delta := true
	for _, obj := range objs {
		if !e.protocolFor(obj).DeltaEligible() {
			delta = false
			break
		}
	}
	homeFn := e.cfg.HomeFn
	if e.cfg.Route != nil {
		// Replicated mode: copy-set lookups go to each shard's current
		// primary per the adopted map. A stale view surfaces as a site
		// error (the host answers RouteResp), failing this commit rather
		// than pushing to a wrong copy set.
		m := e.cfg.Route.Map()
		homeFn = func(obj ids.ObjectID) ids.NodeID {
			if s := int(e.shardOf(obj)); s < m.NumShards() {
				return m.Primary[s]
			}
			return e.cfg.HomeFn(obj)
		}
	}
	return siteErr(e.xfer.Push(objs, dirty, homeFn, delta))
}

// completeAll wakes a batch of granted local waiters.
func completeAll(ws []*o2pl.Waiter, err error) {
	for _, w := range ws {
		if f, ok := w.Data.(transport.Future); ok && f != nil {
			f.Complete(nil, err)
		}
	}
}

// DebugDump renders this engine's family, entry, pending-request and
// retained-grant state for diagnostics, in sorted order so dumps from
// identical states are byte-identical (diffable across runs).
func (e *Engine) DebugDump() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var b []byte
	add := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	famIDs := make([]ids.FamilyID, 0, len(e.fams))
	for famID := range e.fams {
		famIDs = append(famIDs, famID)
	}
	sort.Slice(famIDs, func(i, j int) bool { return famIDs[i] < famIDs[j] })
	for _, famID := range famIDs {
		fam := e.fams[famID]
		add("node %v fam=%v age=%d doomed=%v:", e.self, famID, fam.age, fam.doomed)
		for _, obj := range sortedObjKeys(fam.entries) {
			entry := fam.entries[obj]
			add(" entry{%v mode=%v holders=%d waiters=%d}", obj, entry.GlobalMode(), entry.HolderCount(), entry.WaiterCount())
		}
		add("\n")
	}
	keys := make([]pendKey, 0, len(e.pending))
	for key := range e.pending {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].obj != keys[j].obj {
			return keys[i].obj < keys[j].obj
		}
		return keys[i].tx < keys[j].tx
	})
	for _, key := range keys {
		add("node %v pending{obj=%v tx=%v}\n", e.self, key.obj, key.tx)
	}
	for _, obj := range sortedObjKeys(e.retained) {
		rg := e.retained[obj]
		user := ids.FamilyID(0)
		if rg.user != nil {
			user = rg.user.root.Family()
		}
		add("node %v retained{%v mode=%v user=%v releasing=%v recalled=%v adopting=%v}\n",
			e.self, obj, rg.mode, user, rg.releasing, rg.recalled, rg.adopt != nil)
	}
	return string(b)
}

// sortedObjKeys returns m's object keys in ascending order; iterating a
// map directly would leak Go's randomized iteration order into the
// deterministic trace.
func sortedObjKeys[V any](m map[ids.ObjectID]V) []ids.ObjectID {
	if len(m) == 0 {
		return nil
	}
	out := make([]ids.ObjectID, 0, len(m))
	for obj := range m {
		out = append(out, obj)
	}
	if len(out) == 1 {
		return out
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
