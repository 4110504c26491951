// Package sim assembles the paper's simulation system (§5): a cluster of
// LOTEC sites over the deterministic event-driven network, the shared GDO,
// the randomized nested-object-transaction workload generator, and the
// experiment definitions that regenerate every figure of the evaluation.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"lotec/internal/core"
	"lotec/internal/directory"
	"lotec/internal/fault"
	"lotec/internal/gdo"
	"lotec/internal/history"
	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/node"
	"lotec/internal/pstore"
	"lotec/internal/schema"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/txn"
	"lotec/internal/wire"
)

// Config shapes a simulated cluster.
type Config struct {
	// Nodes is the number of sites (default 8).
	Nodes int
	// PageSize in bytes (default 4096).
	PageSize int
	// Protocol selects the default consistency protocol (core.LOTEC).
	Protocol core.Protocol
	// ProtocolOverrides selects a different protocol per class (§6
	// future-work extension).
	ProtocolOverrides map[ids.ClassID]core.Protocol
	// Net is the simulated network (default fast Ethernet + 20 µs software
	// cost, the paper's mid-range configuration).
	Net netmodel.Params
	// Strict enforces declared access sets (default true — the paper's
	// conservative compiler).
	Strict bool
	// Lenient disables Strict (kept separate so the zero value of Config
	// means strict).
	Lenient bool
	// MaxRetries bounds deadlock retries per root (default 20).
	MaxRetries int
	// DirectoryShards partitions the GDO into that many independent shards
	// (default 1 — the paper's single logical directory). Placement and
	// per-object cost attribution are unchanged at any shard count.
	DirectoryShards int
	// FetchConcurrency bounds in-flight per-site calls of one xfer
	// gather/push fan-out (default 4). The simulated trace is identical at
	// every setting; only modeled gather wall-clock changes.
	FetchConcurrency int
	// Faults, when non-nil, installs a deterministic network fault plan:
	// the virtual wire drops/delays/duplicates/reorders messages per the
	// plan, RPCs grow per-attempt timeouts with retransmission, and node
	// handlers are wrapped in an idempotency cache. Nil keeps the
	// historical fault-free paths byte-for-byte.
	Faults *fault.Plan
	// Retry overrides the transport retry policy (zero fields fall back
	// to the simulator defaults). Only consulted when Faults is non-nil.
	Retry transport.RetryPolicy
	// DeltaOff disables sub-page delta transfers (kept as the negative so
	// the zero value of Config means deltas on, like Strict/Lenient). With
	// deltas off the wire traffic is byte-identical to the pre-delta data
	// plane.
	DeltaOff bool
	// DeltaJournalDepth bounds the per-page dirty-range journal (sealed
	// epochs a delta may reach back across); <= 0 means
	// pstore.DefaultDeltaJournalDepth.
	DeltaJournalDepth int
	// DedicatedDirectory hosts the GDO on an extra (N+1)-th simulated node
	// instead of co-locating directory partitions with the data sites.
	// This mirrors the TCP deployment topology (server.Topology runs the
	// GDO as its own process), putting every lock/release round trip on
	// the simulated wire — required for apples-to-apples calibration
	// against the real cluster. Default false keeps the paper's historical
	// co-located layout and its exact traces.
	DedicatedDirectory bool
	// Replicas, when > 0, runs the directory as that many dedicated
	// control-plane host nodes (N+1 .. N+Replicas) speaking the replicated
	// shard protocol: primary/backup op-log replication, epoch-stamped
	// placement, backup promotion on primary crash, and online shard
	// handoff (Reshard). Engines route lock traffic through a per-node
	// RouteTable instead of HomeFn. Mutually exclusive with
	// DedicatedDirectory. 1 means unreplicated-but-relocatable (no
	// backups). Default 0 keeps the in-process directory and its exact
	// traces.
	Replicas int
	// SpreadShards distributes shard primaries round-robin across the
	// host nodes (each host backs up its ring predecessor's shards)
	// instead of the default all-primaries-on-host-1 layout.
	SpreadShards bool
	// RetainGrants turns on site-retained grants in the directory
	// (gdo/retain.go): a committing release leaves the lock with a site
	// that keeps using the object, and the site's next roots skip the
	// acquire round trip. Default false — the paper has no such mechanism,
	// and its figures must not move; the TCP directory server has it on.
	RetainGrants bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.PageSize <= 0 {
		c.PageSize = 4096
	}
	if c.Protocol == nil {
		c.Protocol = core.LOTEC
	}
	if c.Net.BandwidthBps == 0 {
		c.Net = netmodel.Ethernet100.WithSoftwareCost(20 * time.Microsecond)
	}
	c.Strict = !c.Lenient
	if c.MaxRetries <= 0 {
		c.MaxRetries = 20
	}
	if c.DirectoryShards <= 0 {
		c.DirectoryShards = 1
	}
	if c.FetchConcurrency <= 0 {
		c.FetchConcurrency = 4
	}
	return c
}

// Cluster is one simulated LOTEC deployment. Build it, add classes and
// bodies, create objects, submit root transactions, then Run.
type Cluster struct {
	cfg     Config
	net     *transport.SimNet
	dir     *directory.Sharded
	rec     *stats.Recorder
	schemas *schema.Registry
	methods *node.MethodTable
	mgr     *txn.Manager
	engines map[ids.NodeID]*node.Engine
	stores  map[ids.NodeID]*pstore.Store
	objGen  ids.ObjectIDGenerator

	// Replicated control plane (Replicas > 0); empty in legacy mode.
	hosts      map[ids.NodeID]*directory.Host
	hostIDs    []ids.NodeID
	place      directory.Placement
	initialMap wire.PlacementMap

	results  []*Result
	history  []history.Record
	reshards []*ReshardOutcome
}

// Result captures one submitted root transaction's outcome.
type Result struct {
	Node   ids.NodeID
	Obj    ids.ObjectID
	Method string
	Out    []byte
	Err    error
	// Family is the committed root transaction's family (the last attempt
	// if retried).
	Family ids.FamilyID
	// Tag is the caller-supplied identity from SubmitTagged.
	Tag any
	// At is the submitted arrival time; Done is the virtual time the root
	// finished (committed or gave up). Done-At is the commit latency the
	// calibrate loop compares against wall clock on TCP.
	At   time.Duration
	Done time.Duration
}

// NewCluster builds a cluster; classes must be added before objects, and
// objects before Run.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:     cfg,
		rec:     stats.NewRecorder(),
		dir:     directory.NewSharded(cfg.DirectoryShards, cfg.Nodes),
		schemas: schema.NewRegistry(cfg.PageSize),
		methods: node.NewMethodTable(),
		mgr:     txn.NewManager(),
		engines: make(map[ids.NodeID]*node.Engine, cfg.Nodes),
		stores:  make(map[ids.NodeID]*pstore.Store, cfg.Nodes),
	}
	c.dir.SetRetainGrants(cfg.RetainGrants)
	// With a dedicated directory the GDO lives on an extra simulated node
	// (like the TCP deployment's standalone GDO process), so the network
	// has one env beyond the data sites and every directory op is a real
	// simulated round trip.
	simSize := cfg.Nodes
	dirNode := ids.NodeID(0)
	homeFn := c.dir.HomeNode
	if cfg.DedicatedDirectory {
		simSize = cfg.Nodes + 1
		dirNode = ids.NodeID(cfg.Nodes + 1)
		homeFn = func(ids.ObjectID) ids.NodeID { return dirNode }
	}
	if cfg.Replicas > 0 {
		if cfg.DedicatedDirectory {
			return nil, errors.New("sim: Replicas and DedicatedDirectory are mutually exclusive")
		}
		simSize = cfg.Nodes + cfg.Replicas
		for i := 0; i < cfg.Replicas; i++ {
			c.hostIDs = append(c.hostIDs, ids.NodeID(cfg.Nodes+1+i))
		}
		c.hosts = make(map[ids.NodeID]*directory.Host, cfg.Replicas)
		c.place = directory.NewPlacement(cfg.DirectoryShards, cfg.Nodes)
		c.initialMap = directory.InitialMap(cfg.DirectoryShards, cfg.Nodes, c.hostIDs, cfg.SpreadShards)
		// HomeFn survives as the engines' fallback only; with a RouteTable
		// configured every lock message is routed by the adopted map.
		homeFn = func(obj ids.ObjectID) ids.NodeID {
			return c.initialMap.Primary[c.place.ShardOf(obj)]
		}
	}
	c.net = transport.NewSimNet(simSize, cfg.Net, c.rec)
	faultsActive := false
	if cfg.Faults != nil {
		inj := fault.NewInjector(*cfg.Faults)
		faultsActive = inj.Active()
		c.net.InstallFaults(inj, cfg.Retry)
	}
	for _, id := range c.hostIDs {
		h := directory.NewHost(directory.HostConfig{
			Env:   c.net.Env(id),
			Place: c.place,
			Map:   c.initialMap,
			Rec:   c.rec,

			RetainGrants: cfg.RetainGrants,
		})
		c.hosts[id] = h
		c.net.SetAsyncHandler(id, h.Handler())
	}
	dataNodes := simSize
	if cfg.Replicas > 0 {
		dataNodes = cfg.Nodes
	}
	for i := 1; i <= dataNodes; i++ {
		id := ids.NodeID(i)
		isDir := cfg.DedicatedDirectory && id == dirNode
		var dirSvc directory.Service = c.dir
		if cfg.DedicatedDirectory && !isDir {
			// Data sites don't serve directory traffic in this layout.
			dirSvc = nil
		}
		var route *directory.RouteTable
		if cfg.Replicas > 0 {
			// Lock traffic goes to the control-plane hosts, not peers.
			dirSvc = nil
			route = directory.NewRouteTable(c.net.Env(id), c.rec, c.initialMap)
		}
		store := pstore.NewStore(cfg.PageSize)
		eng, err := node.New(node.Config{
			Env:               c.net.Env(id),
			Store:             store,
			Schemas:           c.schemas,
			Methods:           c.methods,
			Manager:           c.mgr,
			Protocol:          cfg.Protocol,
			ProtocolOverrides: cfg.ProtocolOverrides,
			HomeFn:            homeFn,
			ShardFn:           c.dir.ShardOf,
			Dir:               dirSvc,
			Route:             route,
			Rec:               c.rec,
			MaxRetries:        cfg.MaxRetries,
			FetchConcurrency:  cfg.FetchConcurrency,
			Strict:            cfg.Strict,
			DeltaOff:          cfg.DeltaOff,
			DeltaJournalDepth: cfg.DeltaJournalDepth,
			History:           func(rec history.Record) { c.history = append(c.history, rec) },
		})
		if err != nil {
			return nil, fmt.Errorf("node %v: %w", id, err)
		}
		if !isDir {
			c.engines[id] = eng
			c.stores[id] = store
		}
		if faultsActive {
			// At-least-once delivery needs exactly-once execution: replay
			// cached replies for duplicated idempotent requests. Inert
			// plans skip the wrap: with the injector uninstalled no
			// request is ever stamped, so the filter would be pure
			// pass-through overhead.
			c.net.SetHandler(id, fault.NewDedup().Wrap(eng.Handle))
		} else {
			c.net.SetHandler(id, eng.Handle)
		}
	}
	return c, nil
}

// Schemas exposes the class registry.
func (c *Cluster) Schemas() *schema.Registry { return c.schemas }

// Recorder exposes the run's statistics.
func (c *Cluster) Recorder() *stats.Recorder { return c.rec }

// Directory exposes the shared GDO (tests and verification).
func (c *Cluster) Directory() *directory.Sharded { return c.dir }

// Protocol returns the cluster's consistency protocol.
func (c *Cluster) Protocol() core.Protocol { return c.cfg.Protocol }

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// AddClass registers a class (and computes its layout).
func (c *Cluster) AddClass(cls *schema.Class) error { return c.schemas.Add(cls) }

// RegisterBody binds a Go body to class.method on every node.
func (c *Cluster) RegisterBody(cls *schema.Class, method string, fn node.MethodFunc) error {
	return c.methods.Register(cls, method, fn)
}

// CreateObject instantiates an object of class at owner and registers it
// everywhere (pages materialize at the owner at version 1).
func (c *Cluster) CreateObject(class ids.ClassID, owner ids.NodeID) (ids.ObjectID, error) {
	layout, err := c.schemas.Layout(class)
	if err != nil {
		return 0, err
	}
	obj := c.objGen.Next()
	if len(c.hosts) > 0 {
		// Every replica of the object's shard starts from the same
		// registration, so primary and backup directories never diverge
		// on the object universe.
		for _, id := range c.hostIDs {
			if err := c.hosts[id].RegisterLocal(obj, layout.NumPages(), owner); err != nil {
				return 0, err
			}
		}
	} else if err := c.dir.Register(obj, layout.NumPages(), owner); err != nil {
		return 0, err
	}
	// Registration order is node 1..N: iterating the engines map would run
	// per-node side effects in randomized order.
	for i := 1; i <= c.cfg.Nodes; i++ {
		if err := c.engines[ids.NodeID(i)].RegisterObject(obj, class, owner); err != nil {
			return 0, err
		}
	}
	return obj, nil
}

// Submit schedules a root transaction: at virtual time `at`, node runs
// method on obj. The outcome is appended to Results in completion order.
func (c *Cluster) Submit(at time.Duration, nodeID ids.NodeID, obj ids.ObjectID, method string, arg []byte) error {
	return c.SubmitTagged(at, nodeID, obj, method, arg, nil)
}

// SubmitTagged is Submit with a caller-supplied identity surfaced on the
// Result (e.g. a workload root index).
func (c *Cluster) SubmitTagged(at time.Duration, nodeID ids.NodeID, obj ids.ObjectID, method string, arg []byte, tag any) error {
	eng, ok := c.engines[nodeID]
	if !ok {
		return fmt.Errorf("sim: unknown node %v", nodeID)
	}
	env := c.net.Env(nodeID)
	env.Go(func() {
		if at > 0 {
			env.Sleep(at)
		}
		out, fam, err := eng.Run(obj, method, arg)
		c.results = append(c.results, &Result{
			Node: nodeID, Obj: obj, Method: method, Out: out, Err: err,
			Family: fam, Tag: tag,
			At: at, Done: env.Now(),
		})
	})
	return nil
}

// Run drives the simulation to quiescence.
func (c *Cluster) Run() error { return c.net.Run() }

// Results returns the root-transaction outcomes in completion order.
func (c *Cluster) Results() []*Result { return c.results }

// SerialOrder returns the committed roots in a serialization order of the
// run: the one history.Order derives from the page versions each family was
// granted and wrote. It fails when the history is not conflict serializable,
// or when the committed roots and the recorded families disagree.
func (c *Cluster) SerialOrder() ([]*Result, error) {
	order, err := history.Order(c.history)
	if err != nil {
		return nil, err
	}
	committed := make(map[ids.FamilyID]*Result, len(order))
	for _, r := range c.results {
		if r.Err == nil {
			committed[r.Family] = r
		}
	}
	out := make([]*Result, 0, len(order))
	for _, f := range order {
		if r := committed[ids.FamilyID(f)]; r != nil {
			out = append(out, r)
		}
	}
	if len(out) != len(order) || len(out) != len(committed) {
		return nil, fmt.Errorf("sim: %d roots committed, %d families recorded, %d of them both", len(committed), len(order), len(out))
	}
	return out, nil
}

// FailedResults returns the outcomes whose Err is non-nil.
func (c *Cluster) FailedResults() []*Result {
	var out []*Result
	for _, r := range c.results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// Now returns the cluster's virtual time.
func (c *Cluster) Now() time.Duration { return c.net.Now() }

// primaryHostOf finds the host currently serving shard as primary: the one
// whose own map names it, at the highest epoch (a deposed or crashed
// ex-primary still claims the shard under its stale map and must lose).
// Epochs are unique per map, so the max-epoch claimant is unambiguous.
func (c *Cluster) primaryHostOf(shard int) *directory.Host {
	var best *directory.Host
	var bestEpoch uint64
	for _, id := range c.hostIDs {
		h := c.hosts[id]
		m := h.Map()
		if shard >= m.NumShards() || m.Primary[shard] != h.Self() {
			continue
		}
		if _, ok := h.PrimaryDir(shard); !ok {
			continue
		}
		if best == nil || m.Epoch > bestEpoch {
			best, bestEpoch = h, m.Epoch
		}
	}
	return best
}

// primaryDirOf returns the directory of shard's current primary (nil when
// no live host claims it).
func (c *Cluster) primaryDirOf(shard int) *gdo.Directory {
	h := c.primaryHostOf(shard)
	if h == nil {
		return nil
	}
	d, _ := h.PrimaryDir(shard)
	return d
}

// pageMapOf reads an object's authoritative page map from whichever
// directory currently owns it.
func (c *Cluster) pageMapOf(obj ids.ObjectID) ([]gdo.PageLoc, error) {
	if len(c.hosts) == 0 {
		return c.dir.PageMap(obj)
	}
	shard := c.place.ShardOf(obj)
	d := c.primaryDirOf(shard)
	if d == nil {
		return nil, fmt.Errorf("sim: no current primary for shard %d of %v", shard, obj)
	}
	return d.PageMap(obj)
}

// objects enumerates the registered object universe from the authoritative
// directories (each shard's current primary in replicated mode).
func (c *Cluster) objects() []ids.ObjectID {
	if len(c.hosts) == 0 {
		return c.dir.Objects()
	}
	var out []ids.ObjectID
	for s := 0; s < c.cfg.DirectoryShards; s++ {
		if d := c.primaryDirOf(s); d != nil {
			out = append(out, d.Objects()...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DirectoryDump renders the undrained lock state of the authoritative
// directory — the Sharded router in legacy mode, each shard's current
// primary in replicated mode (deposed and crashed ex-primaries excluded).
// Empty means fully drained.
func (c *Cluster) DirectoryDump() string {
	if len(c.hosts) == 0 {
		return c.dir.DebugDump()
	}
	out := ""
	for s := 0; s < c.cfg.DirectoryShards; s++ {
		h := c.primaryHostOf(s)
		if h == nil {
			continue
		}
		d, _ := h.PrimaryDir(s)
		if dump := d.DebugDump(); dump != "" {
			out += fmt.Sprintf("shard %d@host %v:\n%s", s, h.Self(), dump)
		}
	}
	return out
}

// Hosts returns the control-plane host IDs (empty in legacy mode).
func (c *Cluster) Hosts() []ids.NodeID { return append([]ids.NodeID(nil), c.hostIDs...) }

// Host returns a control-plane host by node ID (tests and oracles).
func (c *Cluster) Host(id ids.NodeID) *directory.Host { return c.hosts[id] }

// CurrentMap returns the newest placement map any host has adopted.
func (c *Cluster) CurrentMap() wire.PlacementMap {
	best := c.initialMap.Clone()
	for _, id := range c.hostIDs {
		if m := c.hosts[id].Map(); m.Epoch > best.Epoch {
			best = m
		}
	}
	return best
}

// ReshardOutcome records one scheduled online handoff's result.
type ReshardOutcome struct {
	Shard  int
	Target ids.NodeID
	OK     bool
	// Bytes is the exported shard snapshot size shipped to the target.
	Bytes uint64
	Err   error
}

// Reshard schedules an online handoff: at virtual time `at`, shard's
// current primary seals, drains, and transfers ownership (directory state,
// page maps, lock queues) to target — another control-plane host — while
// client traffic continues; parked requests are replayed or re-routed,
// never dropped. The outcome is appended to Reshards() when it resolves.
func (c *Cluster) Reshard(at time.Duration, shard int, target ids.NodeID) error {
	if len(c.hosts) == 0 {
		return errors.New("sim: Reshard requires Replicas > 0")
	}
	if _, ok := c.hosts[target]; !ok {
		return fmt.Errorf("sim: reshard target %v is not a control-plane host", target)
	}
	if shard < 0 || shard >= c.cfg.DirectoryShards {
		return fmt.Errorf("sim: reshard shard %d out of range", shard)
	}
	// The controller runs as a client of the control plane from node 1's
	// endpoint: route to the shard's current primary, retry on refusal
	// (e.g. a concurrent transfer), and record the terminal outcome.
	env := c.net.Env(ids.NodeID(1))
	rt := directory.NewRouteTable(env, nil, c.initialMap)
	env.Go(func() {
		if at > 0 {
			env.Sleep(at)
		}
		out := &ReshardOutcome{Shard: shard, Target: target}
		for attempt := 0; attempt < 8; attempt++ {
			reply, err := rt.Call(shard, &wire.HandoffStartReq{Shard: int32(shard), Target: target})
			if err != nil {
				out.Err = err
				break
			}
			hr, ok := reply.(*wire.HandoffStartResp)
			if !ok {
				out.Err = fmt.Errorf("sim: reshard reply %T", reply)
				break
			}
			rt.Adopt(hr.Map)
			if hr.OK {
				out.OK, out.Bytes, out.Err = true, hr.StateBytes, nil
				break
			}
			out.Err = fmt.Errorf("sim: reshard of shard %d to %v refused", shard, target)
			env.Sleep(time.Millisecond)
		}
		c.reshards = append(c.reshards, out)
	})
	return nil
}

// Reshards returns the scheduled handoff outcomes in completion order.
func (c *Cluster) Reshards() []*ReshardOutcome { return c.reshards }

// ObjectBytes assembles the authoritative final contents of obj by reading
// each page from the site holding its newest version (per the GDO page
// map). Used by tests to compare protocol runs and serial replays.
func (c *Cluster) ObjectBytes(obj ids.ObjectID) ([]byte, error) {
	pm, err := c.pageMapOf(obj)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(pm)*c.cfg.PageSize)
	for p, loc := range pm {
		store, ok := c.stores[loc.Node]
		if !ok {
			return nil, fmt.Errorf("sim: page map names unknown node %v", loc.Node)
		}
		data, ver, err := store.PageCopy(ids.PageID{Object: obj, Page: ids.PageNum(p)})
		if err != nil {
			return nil, fmt.Errorf("authoritative page %v/p%d: %w", obj, p, err)
		}
		if ver != loc.Version {
			return nil, fmt.Errorf("sim: %v/p%d version %d at %v, page map says %d",
				obj, p, ver, loc.Node, loc.Version)
		}
		out = append(out, data...)
	}
	return out, nil
}

// VerifyPageMapCoherence checks invariant 6 of DESIGN.md: after a run,
// every page-map entry points at a node that actually holds that version.
func (c *Cluster) VerifyPageMapCoherence() error {
	var errs []error
	for _, obj := range c.objects() {
		if _, err := c.ObjectBytes(obj); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Engine returns a node's engine (tests).
func (c *Cluster) Engine(id ids.NodeID) *node.Engine { return c.engines[id] }

// Store returns a node's page store (tests).
func (c *Cluster) Store(id ids.NodeID) *pstore.Store { return c.stores[id] }
