package main

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"lotec"
	"lotec/internal/core"
	"lotec/internal/directory"
	"lotec/internal/fault"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/pstore"
	"lotec/internal/schema"
	"lotec/internal/server"
	"lotec/internal/sim"
	"lotec/internal/stats"
	"lotec/internal/txn"
	"lotec/internal/wire"
	"lotec/internal/xfer"
)

// Layer probes: workload-independent loops that time calls into one layer's
// exported functions with inputs shaped like the workloads'. Each runs for
// about probeBudget; they say what one layer costs on its own, which the
// traced run cannot.
var probeBudget = 150 * time.Millisecond

// sink keeps probe results alive so the compiler cannot drop the calls.
var probeSink any

// nsPerOp calls op repeatedly for about probeBudget and returns the mean
// time per call.
func nsPerOp(op func()) float64 {
	const batch = 64
	n, start := 0, time.Now()
	for time.Since(start) < probeBudget {
		for i := 0; i < batch; i++ {
			op()
		}
		n += batch
	}
	return float64(time.Since(start)) / float64(n)
}

// nsPerOpPar is nsPerOp with one caller per goroutine; op gets the
// goroutine's index. It returns wall time per call across all callers and
// the mean time one caller spent per call.
func nsPerOpPar(workers int, op func(worker int)) (wallNs, callerNs float64) {
	var wg sync.WaitGroup
	counts := make([]int, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < probeBudget {
				op(w)
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	elapsed, total := float64(time.Since(start)), 0
	for _, c := range counts {
		total += c
	}
	return elapsed / float64(total), elapsed * float64(workers) / float64(total)
}

type probeSet map[string]metric

func (p probeSet) ns(name string, v float64) { p[name] = metric{v, "ns"} }
func (p probeSet) us(name string, v float64) { p[name] = metric{v / 1e3, "us"} }

// runProbes runs every layer probe.
func runProbes() (map[string]metric, error) {
	p := probeSet{}
	for _, probe := range []func(probeSet) error{
		probeServer, probeClient, probeWire, probeDirectory, probeGDO, probeFault,
		probeLocks, probePstore, probeXfer, probeSchema, probeStats, probeSim,
	} {
		if err := probe(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ctlReply is the small directory reply the control-path probes use: an
// AcquireResp with a five-entry page map, the largest of hot-open's objects.
func ctlReply() *wire.AcquireResp {
	return &wire.AcquireResp{Obj: 7, Status: gdo.GrantedNow, Mode: o2pl.Write, NumPages: 5, LastWriter: 2,
		PageMap: make([]gdo.PageLoc, 5)}
}

// pageReply builds a MultiFetchResp of n full pages of one object.
func pageReply(n int) *wire.MultiFetchResp {
	pages := make([]wire.PagePayload, n)
	for i := range pages {
		pages[i] = wire.PagePayload{Page: ids.PageNum(i), Version: 9, Data: make([]byte, pageSize)}
	}
	return &wire.MultiFetchResp{Objs: []wire.ObjPayload{{Obj: 7, Pages: pages}}}
}

// probeServer times TCPNet.Call between two endpoints on loopback.
func probeServer(p probeSet) error {
	addrs, err := freeAddrs(2)
	if err != nil {
		return err
	}
	table := map[ids.NodeID]string{1: addrs[0], 2: addrs[1]}
	a, b := server.NewTCPNet(1, table), server.NewTCPNet(2, table)
	small, bulk := ctlReply(), pageReply(16)
	b.SetHandler(func(_ ids.NodeID, m wire.Msg) wire.Msg {
		if _, ok := m.(*wire.MultiFetchReq); ok {
			return bulk
		}
		return small
	})
	a.SetHandler(func(ids.NodeID, wire.Msg) wire.Msg { return nil })
	for _, n := range []*server.TCPNet{a, b} {
		if err := n.Listen(); err != nil {
			return err
		}
		defer n.Close()
	}
	req := func() wire.Msg {
		return &wire.AcquireReq{Obj: 7, Ref: ids.TxRef{Tx: 1, Node: 1}, Family: 1, Age: 1, Site: 1, Mode: o2pl.Write}
	}
	var callErr error
	call := func(m wire.Msg) {
		if _, err := a.Call(2, m); err != nil {
			callErr = err
		}
	}
	call(req()) // dial
	p.us("server.rpc_rtt_us", nsPerOp(func() { call(req()) }))
	wall, caller := nsPerOpPar(8, func(int) { call(req()) })
	p.us("server.rpc_rtt_conc8_us", caller)
	p["server.rpc_calls_per_s"] = metric{1e9 / wall, "1/s"}
	bulkNs := nsPerOp(func() { call(&wire.MultiFetchReq{Objs: []wire.ObjPages{{Obj: 7, Pages: make([]ids.PageNum, 16)}}}) })
	p["server.bulk_mb_per_s"] = metric{16 * pageSize / bulkNs * 1e3, "MB/s"}
	return callErr
}

// probeClient times the client hop: a one-page read root through lotec.Dial
// against the same root through Node.Run.
func probeClient(p probeSet) error {
	sched, err := generate(spec{name: "probe", inflight: 1, objects: 4, minPages: 1, maxPages: 1}, 1)
	if err != nil {
		return err
	}
	c, err := startCluster(sched, nil, nil)
	if err != nil {
		return err
	}
	defer c.close()
	owner := sched.objects[0].owner
	cl, err := lotec.Dial(c.nodes[owner-1].Addr(), owner)
	if err != nil {
		return err
	}
	defer cl.Close()
	arg := callArg(0, encodeChildren(nil))
	var runErr error
	note := func(_ []byte, err error) {
		if err != nil {
			runErr = err
		}
	}
	direct := nsPerOp(func() { note(c.nodes[owner-1].Run(1, "r0", arg)) })
	remote := nsPerOp(func() { note(cl.Run(1, "r0", arg)) })
	p.us("server.client_run_overhead_us", remote-direct)
	return runErr
}

// probeWire times the codec on the two message shapes that dominate the
// workloads: the small directory reply and a four-page fetch reply.
func probeWire(p probeSet) error {
	env := wire.Envelope{ReqID: 42, From: 1, To: 2}
	var decErr error
	codec := func(m wire.Msg) (enc, dec func()) {
		encoded := wire.Encode(env, m)
		enc = func() { wire.ReleaseFrame(wire.EncodeFrame(env, m)) }
		dec = func() {
			_, out, err := wire.DecodeView(encoded)
			if err != nil {
				decErr = err
			}
			probeSink = out
		}
		return enc, dec
	}
	enc, dec := codec(ctlReply())
	p.ns("wire.encode_ctl_ns", nsPerOp(enc))
	p.ns("wire.decode_ctl_ns", nsPerOp(dec))
	enc, dec = codec(pageReply(4))
	const kib = 4 * pageSize / 1024
	p.ns("wire.encode_page_ns_per_kib", nsPerOp(enc)/kib)
	p.ns("wire.decode_page_ns_per_kib", nsPerOp(dec)/kib)
	p["wire.allocs_per_msg"] = metric{testing.AllocsPerRun(200, func() { enc(); dec() }), "count"}
	return decErr
}

// probeDirectory times the sharded directory's uncontended fast path.
func probeDirectory(p probeSet) error {
	const objects = 256
	workers := runtime.NumCPU()
	s := directory.NewSharded(1, numNodes)
	for o := ids.ObjectID(1); o <= objects; o++ {
		if err := s.Register(o, 1, 1); err != nil {
			return err
		}
	}
	var opErr error
	fams := make([]ids.FamilyID, workers)
	// Worker w cycles over its own share of the objects with its own
	// family IDs, so callers never contend for a lock, only for the shard.
	cycle := func(w int) {
		fams[w]++
		fam := fams[w]<<8 | ids.FamilyID(w)
		obj := ids.ObjectID(int(fams[w])%(objects/workers)*workers + w + 1)
		if _, _, err := s.Acquire(obj, ids.TxRef{Tx: fam, Node: 1}, fam, uint64(fam), 1, o2pl.Write); err != nil {
			opErr = err
		}
		if _, _, err := s.Release(fam, 1, true, []gdo.ObjectRelease{{Obj: obj, Dirty: []ids.PageNum{0}}}); err != nil {
			opErr = err
		}
	}
	p.ns("directory.acquire_release_ns", nsPerOp(func() { cycle(0) }))
	wall, _ := nsPerOpPar(workers, cycle)
	p.ns("directory.acquire_release_par_ns", wall)
	var fam ids.FamilyID = 1 << 40
	p.ns("directory.commit_seq_ns", nsPerOp(func() { fam++; probeSink = s.AssignCommitSeq(fam) }))
	return opErr
}

// probeGDO times a lock hand-off: a family queues behind the holder, then
// the holder's release grants it the lock. One op is the queued acquire plus
// the releasing hand-off.
func probeGDO(p probeSet) error {
	d := gdo.New(numNodes)
	if err := d.Register(1, 5, 1); err != nil {
		return err
	}
	acquire := func(f ids.FamilyID) (gdo.AcquireStatus, error) {
		res, _, err := d.Acquire(1, ids.TxRef{Tx: f, Node: 1}, f, uint64(f), 1, o2pl.Write)
		return res.Status, err
	}
	holder := ids.FamilyID(1)
	if _, err := acquire(holder); err != nil {
		return err
	}
	var opErr error
	p.ns("gdo.handoff_ns", nsPerOp(func() {
		next := holder + 1
		if st, err := acquire(next); err != nil || st != gdo.Queued {
			opErr = fmt.Errorf("gdo probe: waiter got %v, %v", st, err)
		}
		events, _, err := d.Release(holder, 1, true, []gdo.ObjectRelease{{Obj: 1, Dirty: []ids.PageNum{0}}})
		if err != nil || len(events) != 1 || events[0].Kind != gdo.EventGrant {
			opErr = fmt.Errorf("gdo probe: release handed off %d events, %v", len(events), err)
		}
		holder = next
	}))
	return opErr
}

// probeFault times the idempotency filter every request passes through, on
// the path the fault-free deployment takes (request ID 0).
func probeFault(p probeSet) error {
	reply := ctlReply()
	h := fault.NewDedup().Wrap(func(ids.NodeID, wire.Msg) wire.Msg { return reply })
	req := &wire.AcquireReq{Obj: 7}
	p.ns("fault.dedup_passthrough_ns", nsPerOp(func() { probeSink = h(1, req) }))
	return nil
}

// probeLocks times the family-local lock table and the transaction manager
// on a depth-3 family: root, child, grandchild, great-grandchild.
func probeLocks(p probeSet) error {
	var opErr error
	check := func(err error) {
		if err != nil {
			opErr = err
		}
	}
	family := func(m *txn.Manager) [4]*txn.Txn {
		var t [4]*txn.Txn
		t[0] = m.Begin(1)
		for i := 1; i < len(t); i++ {
			var err error
			t[i], err = m.BeginChild(t[i-1])
			check(err)
		}
		return t
	}
	finish := func(m *txn.Manager, t [4]*txn.Txn) {
		for i := len(t) - 1; i > 0; i-- {
			check(m.PreCommit(t[i]))
		}
		check(m.CommitRoot(t[0]))
	}

	// o2pl: the deepest transaction acquires, then the lock is inherited up
	// the chain by three pre-commits.
	m := txn.NewManager()
	t := family(m)
	e := o2pl.NewEntry(1, t[0].Family(), o2pl.Write)
	p.ns("o2pl.acquire_precommit_ns", nsPerOp(func() {
		if d, _, err := e.Acquire(t[3], o2pl.Write); err != nil || d != o2pl.Granted {
			opErr = fmt.Errorf("o2pl probe: acquire decided %v, %v", d, err)
		}
		for i := 3; i > 0; i-- {
			e.PreCommit(t[i])
		}
		e.Abort(t[0]) // drop the root's retention so the next round starts clean
	}))

	m = txn.NewManager()
	p.ns("txn.begin_commit_ns", nsPerOp(func() { finish(m, family(m)) }))

	// What a manager keeps per finished family.
	const families = 20000
	m = txn.NewManager()
	before := heapInUse()
	for i := 0; i < families; i++ {
		finish(m, family(m))
	}
	after := heapInUse()
	runtime.KeepAlive(m)
	p["txn.retained_bytes_per_root"] = metric{(float64(after) - float64(before)) / families, "B"}
	return opErr
}

// commitWrite is the store's share of one committed write: shadow copy,
// write, version stamp (which seals the dirty-range journal), clear dirty.
func commitWrite(st *pstore.Store, obj ids.ObjectID, data []byte, version uint64) error {
	undo := pstore.NewUndoLog()
	pages := []ids.PageNum{0}
	if err := undo.SnapshotBefore(st, obj, pages); err != nil {
		return err
	}
	if _, err := st.Write(obj, 0, data); err != nil {
		return err
	}
	if err := st.SetPageVersion(ids.PageID{Object: obj}, version); err != nil {
		return err
	}
	st.ClearDirty(obj, pages)
	undo.Discard()
	return nil
}

// newStore returns a store holding one resident object of the given size.
func newStore(obj ids.ObjectID, pages int) (*pstore.Store, error) {
	st := pstore.NewStore(pageSize)
	if err := st.Register(obj, pages); err != nil {
		return nil, err
	}
	return st, st.Materialize(obj)
}

func probePstore(p probeSet) error {
	st, err := newStore(1, 1)
	if err != nil {
		return err
	}
	var opErr error
	check := func(err error) {
		if err != nil {
			opErr = err
		}
	}
	pid := ids.PageID{Object: 1}
	version := uint64(0)
	page, small := make([]byte, pageSize), make([]byte, 64)
	p.ns("pstore.write_ns_per_page", nsPerOp(func() { version++; check(commitWrite(st, 1, page, version)) }))
	p.ns("pstore.write_small_ns", nsPerOp(func() { version++; check(commitWrite(st, 1, small, version)) }))
	p.ns("pstore.install_ns_per_page", nsPerOp(func() { check(st.InstallPage(pid, page, version)) }))

	// A journalled 64-byte change from version 1 to 2, asked for and applied.
	check(st.InstallPage(pid, page, 1))
	check(commitWrite(st, 1, small, 2))
	buf := make([]byte, pageSize)
	var runs []pstore.Span
	var n int
	p.ns("pstore.delta_since_ns", nsPerOp(func() {
		var ok bool
		if runs, _, n, ok = st.DeltaSince(pid, 1, buf); !ok {
			opErr = fmt.Errorf("pstore probe: journal does not cover the change")
		}
	}))
	target, err := newStore(1, 1)
	if err != nil {
		return err
	}
	base := uint64(0)
	p.ns("pstore.apply_delta_ns", nsPerOp(func() { check(target.ApplyDelta(pid, base, base+1, runs, buf[:n])); base++ }))
	return opErr
}

// probeXfer times the serving side of a gather: sixteen pages of one object,
// once as full pages and once as journalled 64-byte deltas.
func probeXfer(p probeSet) error {
	const pages = 16
	st, err := newStore(1, pages)
	if err != nil {
		return err
	}
	req := &wire.MultiFetchReq{Objs: []wire.ObjPages{{Obj: 1, Pages: make([]ids.PageNum, pages), Bases: make([]uint64, pages)}}}
	small := make([]byte, 64)
	for i := 0; i < pages; i++ {
		req.Objs[0].Pages[i] = ids.PageNum(i)
		pid := ids.PageID{Object: 1, Page: ids.PageNum(i)}
		// Version 1 → 2 by a journalled 64-byte write, as a commit does it.
		if err := st.SetPageVersion(pid, 1); err != nil {
			return err
		}
		if _, err := st.Write(1, i*pageSize, small); err != nil {
			return err
		}
		if err := st.SetPageVersion(pid, 2); err != nil {
			return err
		}
		st.ClearDirty(1, []ids.PageNum{pid.Page})
	}
	var opErr error
	serve := func(wantDeltas int) func() {
		return func() {
			resp, ok := xfer.ServeFetch(st, nil, req).(*wire.MultiFetchResp)
			if !ok || len(resp.Objs[0].Deltas) != wantDeltas {
				opErr = fmt.Errorf("xfer probe: want %d deltas in %+v", wantDeltas, resp)
				return
			}
			for _, pg := range resp.Objs[0].Pages {
				xfer.ReleasePage(pg.Data)
			}
			for _, d := range resp.Objs[0].Deltas {
				xfer.ReleasePage(d.Data)
			}
		}
	}
	p.ns("xfer.serve_ns_per_page", nsPerOp(serve(0))/pages)
	for i := range req.Objs[0].Bases {
		req.Objs[0].Bases[i] = 1
	}
	p.ns("xfer.serve_delta_ns_per_page", nsPerOp(serve(pages))/pages)
	return opErr
}

// probeSchema times access prediction for a method of a 20-page class.
func probeSchema(p probeSet) error {
	sched, err := generate(spec{name: "probe", inflight: 1, objects: 1, minPages: 20, maxPages: 20}, 1)
	if err != nil {
		return err
	}
	layout, err := schema.NewLayout(sched.classes[20], pageSize)
	if err != nil {
		return err
	}
	var opErr error
	p.ns("schema.predict_ns", nsPerOp(func() {
		r, err := layout.MethodReadPages(0)
		w, err2 := layout.MethodWritePages(0)
		if err != nil || err2 != nil {
			opErr = fmt.Errorf("schema probe: %v, %v", err, err2)
		}
		probeSink = r.Union(w)
	}))
	return opErr
}

// probeStats times the recorder the traced run attaches.
func probeStats(p probeSet) error {
	rec := stats.MsgRecord{From: 1, To: 2, Obj: 7, Kind: stats.KindLockReq, Bytes: 85, Shard: 0}
	r := stats.NewRecorder()
	p.ns("stats.record_ns", nsPerOp(func() { r.Record(rec) }))
	r = stats.NewRecorder()
	wall, _ := nsPerOpPar(runtime.NumCPU(), func(int) { r.Record(rec) })
	p.ns("stats.record_par_ns", wall)
	return nil
}

// probeSim runs the paper's figure 3 on the simulator under each protocol.
// The byte counts are exact and must order LOTEC <= OTEC <= COTEC.
func probeSim(p probeSet) error {
	fig, err := sim.FigureByID("3")
	if err != nil {
		return err
	}
	bytesPerRoot := map[string]float64{}
	for _, proto := range []core.Protocol{core.COTEC, core.OTEC, core.LOTEC} {
		fig.Protocols = []core.Protocol{proto}
		start := time.Now()
		res, err := sim.RunFigure(fig)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		run := res.Runs[0]
		roots := float64(run.Counters.Commits)
		bytesPerRoot[run.Protocol] = float64(run.Recorder.Totals().DataBytes) / roots
		if proto == core.LOTEC {
			p["sim.roots_per_s"] = metric{roots / elapsed.Seconds(), "1/s"}
		}
	}
	c, o, l := bytesPerRoot["COTEC"], bytesPerRoot["OTEC"], bytesPerRoot["LOTEC"]
	p["sim.bytes_per_root_cotec"] = metric{c, "B"}
	p["sim.bytes_per_root_otec"] = metric{o, "B"}
	p["sim.bytes_per_root_lotec"] = metric{l, "B"}
	if !(l <= o && o <= c) {
		return fmt.Errorf("sim figure 3: bytes per root LOTEC %.0f, OTEC %.0f, COTEC %.0f are not ordered", l, o, c)
	}
	return nil
}
