// The calibrate loop (-calibrate): run the identical compiled workload
// twice — once on the deterministic simulator in the TCP-shaped topology
// (the GDO on its own node, every directory op a wire round trip), once on
// a real in-process TCP deployment — and compare what the model predicted
// against what the wire measured, per client class and globally. The
// predicted-vs-measured table lands in BENCH_results.json under
// "calibration", and an accuracy gate fails the run when the model drifts:
// commit/abort counts must match exactly (injected aborts are seed-pure on
// both runtimes), traffic volume within a tolerance band. Latencies are
// reported but never gated — virtual nanoseconds and loopback wall clock
// are different quantities; the table exists so the divergence is visible.
package main

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/server"
	"lotec/internal/sim"
	"lotec/internal/stats"
	"lotec/internal/workload"
)

// Tolerance bands for the gated traffic KPIs. The simulator and the TCP
// runtime run the same engine on the same schedule, but real scheduling
// reorders lock grants and ownership migration, so fetch/push counts
// legitimately wander; the band is where "same protocol, different
// interleaving" ends and "model is wrong" begins.
const (
	calibBytesTol = 0.35
	calibMsgsTol  = 0.35
)

// calibRow is one line of the predicted-vs-measured table.
type calibRow struct {
	KPI       string  `json:"kpi"`
	Class     string  `json:"class,omitempty"`
	Predicted float64 `json:"predicted"`
	Measured  float64 `json:"measured"`
	// RelErr is |measured-predicted| / |predicted| (measured as the
	// denominator when the prediction is zero; 0 when both are).
	RelErr float64 `json:"rel_err"`
	// Gated rows fail the calibration when RelErr exceeds Limit.
	Gated bool    `json:"gated"`
	Limit float64 `json:"limit,omitempty"`
}

// latencyError is the netmodel's latency accuracy for one class: the
// relative error of each reported latency statistic (virtual clock vs TCP
// wall clock) and their mean. Never gated — the two clocks measure
// different quantities — but recorded explicitly so model drift is a
// first-class, trendable number instead of four table rows.
type latencyError struct {
	Class   string  `json:"class,omitempty"`
	P50     float64 `json:"p50_rel_err"`
	P95     float64 `json:"p95_rel_err"`
	P99     float64 `json:"p99_rel_err"`
	Mean    float64 `json:"mean_rel_err"`
	Overall float64 `json:"overall_rel_err"`
}

// calibration is the "calibration" section of BENCH_results.json.
type calibration struct {
	Provenance workload.Provenance `json:"provenance"`
	Predicted  []workload.ClassKPI `json:"predicted"`
	Measured   []workload.ClassKPI `json:"measured"`
	Table      []calibRow          `json:"table"`
	// LatencyError is the per-class netmodel latency error, plus an
	// aggregate row (empty class) averaging across classes.
	LatencyError []latencyError `json:"latency_error"`
	Pass         bool           `json:"pass"`
}

// calibRun is what one runtime reports for the shared schedule.
type calibRun struct {
	kpis  []workload.ClassKPI
	bytes int64 // consistency data traffic (DataBytes)
	msgs  int64 // protocol messages, server-only kinds excluded
}

// serverOnlyKind reports whether a message kind exists only on the TCP
// runtime (object registration, client dispatch, error replies). The
// simulator submits roots and creates objects in-process, so these kinds
// never appear in its trace and must not count against the model.
func serverOnlyKind(k stats.MsgKind) bool {
	switch k {
	case stats.KindRegister, stats.KindRegisterReply,
		stats.KindRun, stats.KindRunReply, stats.KindError:
		return true
	}
	return false
}

// protocolMsgs counts the recorded protocol messages both runtimes share.
func protocolMsgs(rec *stats.Recorder) int64 {
	var n int64
	for _, m := range rec.Trace() {
		if !serverOnlyKind(m.Kind) {
			n++
		}
	}
	return n
}

// calibPredict runs the spec on the simulator with a dedicated directory
// node that retains grants at sites — the topology and the directory the
// TCP deployment uses — and collects per-class KPIs on the virtual clock.
func calibPredict(spec *workload.Spec) (*calibRun, error) {
	w, err := workload.Compile(spec)
	if err != nil {
		return nil, err
	}
	c, _, err := sim.WrapWorkload(w).Execute(sim.Config{Protocol: core.LOTEC, DedicatedDirectory: true, RetainGrants: true})
	if err != nil {
		return nil, fmt.Errorf("predicted (sim) run: %w", err)
	}
	col := workload.NewKPICollector(w.ClassNames)
	for _, r := range c.Results() {
		root := w.Roots[r.Tag.(int)]
		col.Observe(root.Class, int64(r.Done-r.At), r.Err == nil)
	}
	return &calibRun{
		kpis:  col.Rows(),
		bytes: c.Recorder().Totals().DataBytes,
		msgs:  protocolMsgs(c.Recorder()),
	}, nil
}

// calibFreeAddrs reserves n distinct loopback addresses by binding and
// immediately releasing them (the servers re-bind moments later).
func calibFreeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs, nil
}

// calibMeasure replays the same compiled schedule open-loop against an
// in-process TCP deployment: one GDO and N node servers on loopback, one
// shared traffic recorder, every root submitted at its generated arrival
// time and timed on the wall clock.
func calibMeasure(spec *workload.Spec) (*calibRun, error) {
	w, err := workload.Compile(spec)
	if err != nil {
		return nil, err
	}
	addrs, err := calibFreeAddrs(w.Cfg.Nodes + 1)
	if err != nil {
		return nil, err
	}
	topo := server.Topology{NodeAddrs: addrs[:w.Cfg.Nodes], GDOAddr: addrs[w.Cfg.Nodes]}
	rec := stats.NewRecorder()

	gdo := server.NewGDOServer(topo)
	gdo.SetRecorder(rec)
	if err := gdo.Start(); err != nil {
		return nil, fmt.Errorf("start GDO: %w", err)
	}
	defer gdo.Close()

	body := workload.Body(w.Cfg.WriteBytes)
	nodes := make([]*server.NodeServer, w.Cfg.Nodes)
	for i := range nodes {
		n, err := server.NewNodeServer(server.NodeConfig{
			Topology: topo,
			Self:     ids.NodeID(i + 1),
			Protocol: core.LOTEC,
			PageSize: w.Cfg.PageSize,
			Lenient:  w.Cfg.MispredictProb > 0,
			Rec:      rec,
		})
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i+1, err)
		}
		for _, cls := range w.Classes {
			if err := n.AddClass(cls); err != nil {
				return nil, err
			}
			for _, m := range cls.Methods() {
				if err := n.OnMethod(cls, m.Name, body); err != nil {
					return nil, err
				}
			}
		}
		if err := n.Start(); err != nil {
			return nil, fmt.Errorf("start node %d: %w", i+1, err)
		}
		defer n.Close()
		nodes[i] = n
	}

	// Create every object on every node; the owner's call goes first
	// because it also registers the object with the GDO.
	objs := make([]ids.ObjectID, len(w.Objects))
	for j, o := range w.Objects {
		obj := ids.ObjectID(j + 1)
		objs[j] = obj
		if err := nodes[o.Owner-1].CreateObject(obj, o.Class, o.Owner); err != nil {
			return nil, fmt.Errorf("create object %v: %w", obj, err)
		}
		for i, n := range nodes {
			if ids.NodeID(i+1) == o.Owner {
				continue
			}
			if err := n.CreateObject(obj, o.Class, o.Owner); err != nil {
				return nil, fmt.Errorf("create object %v at node %d: %w", obj, i+1, err)
			}
		}
	}

	// Open-loop replay: sleep to each root's arrival, then fire it on its
	// own goroutine (no admission control — that is the point of open
	// loop). Latency is arrival-to-return, like the simulator's At→Done.
	type outcome struct {
		latNs     int64
		committed bool
	}
	results := make([]outcome, len(w.Roots))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, root := range w.Roots {
		if d := root.At - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, root workload.RootSpec) {
			defer wg.Done()
			start := time.Now()
			_, err := nodes[root.Node-1].Run(objs[root.Call.ObjIndex], root.Call.Method,
				workload.EncodeCall(objs, root.Call))
			results[i] = outcome{latNs: time.Since(start).Nanoseconds(), committed: err == nil}
		}(i, root)
	}
	wg.Wait()
	// Let trailing asynchronous frames (deferred grants from the last
	// releases) reach the recorder before snapshotting the trace.
	time.Sleep(100 * time.Millisecond)

	col := workload.NewKPICollector(w.ClassNames)
	for i, root := range w.Roots {
		col.Observe(root.Class, results[i].latNs, results[i].committed)
	}
	return &calibRun{
		kpis:  col.Rows(),
		bytes: rec.Totals().DataBytes,
		msgs:  protocolMsgs(rec),
	}, nil
}

// relErr is |measured-predicted| normalized by the prediction (or by the
// measurement when the prediction is zero; 0 when both are).
func relErr(pred, meas float64) float64 {
	if pred == meas {
		return 0
	}
	den := math.Abs(pred)
	if den == 0 {
		den = math.Abs(meas)
	}
	return math.Abs(meas-pred) / den
}

// buildCalibration assembles the predicted-vs-measured table and evaluates
// the accuracy gate.
func buildCalibration(prov workload.Provenance, pred, meas *calibRun) *calibration {
	cal := &calibration{Provenance: prov, Predicted: pred.kpis, Measured: meas.kpis, Pass: true}
	byClass := make(map[string]workload.ClassKPI, len(meas.kpis))
	for _, k := range meas.kpis {
		byClass[k.Class] = k
	}
	add := func(kpi, class string, p, m float64, gated bool, limit float64) {
		row := calibRow{
			KPI: kpi, Class: class,
			Predicted: p, Measured: m,
			RelErr: relErr(p, m),
			Gated:  gated, Limit: limit,
		}
		if gated && row.RelErr > limit {
			cal.Pass = false
		}
		cal.Table = append(cal.Table, row)
	}
	for _, p := range pred.kpis {
		m := byClass[p.Class]
		// Commit/abort splits are seed-pure oracles (Call.FailsOut) on
		// both runtimes, so they must agree exactly.
		add("roots", p.Class, float64(p.Roots), float64(m.Roots), true, 0)
		add("commits", p.Class, float64(p.Commits), float64(m.Commits), true, 0)
		add("aborts", p.Class, float64(p.Aborts), float64(m.Aborts), true, 0)
		add("abort_rate", p.Class, p.AbortRate, m.AbortRate, false, 0)
		add("lat_p50_ns", p.Class, float64(p.LatP50Ns), float64(m.LatP50Ns), false, 0)
		add("lat_p95_ns", p.Class, float64(p.LatP95Ns), float64(m.LatP95Ns), false, 0)
		add("lat_p99_ns", p.Class, float64(p.LatP99Ns), float64(m.LatP99Ns), false, 0)
		add("lat_mean_ns", p.Class, p.LatMeanNs, m.LatMeanNs, false, 0)
	}
	add("bytes_moved", "", float64(pred.bytes), float64(meas.bytes), true, calibBytesTol)
	add("msgs", "", float64(pred.msgs), float64(meas.msgs), true, calibMsgsTol)

	// The explicit netmodel latency-error record: per class, then the
	// cross-class aggregate.
	var agg latencyError
	for _, p := range pred.kpis {
		m := byClass[p.Class]
		le := latencyError{
			Class: p.Class,
			P50:   relErr(float64(p.LatP50Ns), float64(m.LatP50Ns)),
			P95:   relErr(float64(p.LatP95Ns), float64(m.LatP95Ns)),
			P99:   relErr(float64(p.LatP99Ns), float64(m.LatP99Ns)),
			Mean:  relErr(p.LatMeanNs, m.LatMeanNs),
		}
		le.Overall = (le.P50 + le.P95 + le.P99 + le.Mean) / 4
		cal.LatencyError = append(cal.LatencyError, le)
		agg.P50 += le.P50
		agg.P95 += le.P95
		agg.P99 += le.P99
		agg.Mean += le.Mean
	}
	if n := float64(len(pred.kpis)); n > 0 {
		agg.P50 /= n
		agg.P95 /= n
		agg.P99 /= n
		agg.Mean /= n
		agg.Overall = (agg.P50 + agg.P95 + agg.P99 + agg.Mean) / 4
		cal.LatencyError = append(cal.LatencyError, agg)
	}
	return cal
}

// printCalibration renders the table for the terminal.
func printCalibration(cal *calibration) {
	fmt.Printf("calibration: %s (spec %.12s, seed %d)\n",
		cal.Provenance.Workload, cal.Provenance.SpecHash, cal.Provenance.Seed)
	fmt.Printf("%-12s %-8s %14s %14s %8s  %s\n", "kpi", "class", "predicted", "measured", "rel_err", "gate")
	for _, r := range cal.Table {
		gate := ""
		switch {
		case r.Gated && r.RelErr > r.Limit:
			gate = fmt.Sprintf("FAIL (> %.2f)", r.Limit)
		case r.Gated:
			gate = fmt.Sprintf("ok (<= %.2f)", r.Limit)
		}
		class := r.Class
		if class == "" {
			class = "-"
		}
		fmt.Printf("%-12s %-8s %14.0f %14.0f %8.3f  %s\n", r.KPI, class, r.Predicted, r.Measured, r.RelErr, gate)
	}
	for _, le := range cal.LatencyError {
		class := le.Class
		if class == "" {
			class = "(all)"
		}
		fmt.Printf("netmodel latency error %-8s p50=%.3f p95=%.3f p99=%.3f mean=%.3f overall=%.3f\n",
			class, le.P50, le.P95, le.P99, le.Mean, le.Overall)
	}
}

// runCalibrate is the -calibrate entry point: predict, measure, table,
// merge into jsonPath, gate.
func runCalibrate(specArg, jsonPath string) error {
	spec, err := workload.LoadSpec(specArg)
	if err != nil {
		return err
	}
	prov := workload.Provenance{Workload: spec.Name, SpecHash: spec.Hash(), Seed: spec.Seed}

	pred, err := calibPredict(spec)
	if err != nil {
		return err
	}
	meas, err := calibMeasure(spec)
	if err != nil {
		return err
	}
	cal := buildCalibration(prov, pred, meas)
	printCalibration(cal)

	doc, err := readBenchDoc(jsonPath)
	if err != nil {
		return err
	}
	doc.Calibration = cal
	if err := writeBenchDoc(jsonPath, doc); err != nil {
		return err
	}
	fmt.Printf("wrote calibration section to %s\n", jsonPath)

	if !cal.Pass {
		return fmt.Errorf("calibration gate failed: model and TCP measurement disagree beyond tolerance")
	}
	return nil
}
