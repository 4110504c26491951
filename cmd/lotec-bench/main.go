// lotec-bench explores the network-parameter space of §5: it runs one
// figure's workload per protocol and prices the hottest object's message
// trace under every bandwidth × software-cost combination — the full grid
// behind Figures 6–8, for finding where LOTEC's smaller-but-more-numerous
// messages win or lose.
//
// With -json, it additionally benchmarks the directory itself — concurrent
// acquire/release throughput at 1, 2, 4 and 8 lock shards — counts the lines
// of Go in the module, and writes machine-readable results to
// BENCH_results.json. Run it from the module root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lotec/internal/core"
	"lotec/internal/directory"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/o2pl"
	"lotec/internal/sim"
	"lotec/internal/stats"
	"lotec/internal/workload"
)

// benchResult is one line of BENCH_results.json.
type benchResult struct {
	// Op names the benchmark ("workload/figure3", "directory/acquire-release/shards=4").
	Op string `json:"op"`
	// Protocol is the consistency protocol, where one applies.
	Protocol string `json:"protocol,omitempty"`
	// Shards is the directory partition count, for directory benchmarks.
	Shards int `json:"shards,omitempty"`
	// FetchConcurrency is the transfer fan-out bound, for sweep entries.
	FetchConcurrency int `json:"fetch_concurrency,omitempty"`
	// Ops is the number of operations timed.
	Ops int `json:"ops"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// WriteBytes is the write schema of a delta-sweep entry: each declared
	// write touches only this many bytes of its attribute (absent =
	// historical whole-attribute writes).
	WriteBytes int `json:"write_bytes,omitempty"`
	// BytesMoved is the consistency data traffic of the run (simulated
	// runs only; the directory benchmark is in-process).
	BytesMoved int64 `json:"bytes_moved"`
	// Delta-transfer split of BytesMoved (delta sweep entries only):
	// bytes that moved as dirty-range deltas, the full-page bytes those
	// deltas replaced minus their encoded size, and how many pages fell
	// back to a full payload.
	DeltaBytes      int64 `json:"delta_bytes,omitempty"`
	DeltaSavedBytes int64 `json:"delta_saved_bytes,omitempty"`
	DeltaFallbacks  int64 `json:"delta_fallbacks,omitempty"`
	// AllocsPerOp is heap allocations per committed root (delta sweep
	// entries only; the delta path must stay allocation-lean — payload
	// buffers are pooled).
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// AllocBytesPerOp is heap bytes allocated per committed root (the
	// tcp/alloc-bytes-per-data-root row only, next to its AllocsPerOp).
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op,omitempty"`
	// Transfer-pipeline breakdown (simulated runs only): total transfers
	// and the summed per-stage wall clock on the cluster's virtual clock.
	// Gather is the only stage whose time responds to FetchConcurrency.
	Transfers    int   `json:"transfers,omitempty"`
	XferPlanNs   int64 `json:"xfer_plan_ns,omitempty"`
	XferGatherNs int64 `json:"xfer_gather_ns,omitempty"`
	XferApplyNs  int64 `json:"xfer_apply_ns,omitempty"`
	// Control-plane availability (replication/availability rows only):
	// failover latency percentiles under a primary kill, backup promotions,
	// aborts attributable to each failover, and the state shipped by an
	// online shard handoff. All measured on the virtual clock.
	Replicas          int     `json:"replicas,omitempty"`
	FailoverP50Ns     int64   `json:"failover_p50_ns,omitempty"`
	FailoverP99Ns     int64   `json:"failover_p99_ns,omitempty"`
	Promotions        int64   `json:"promotions,omitempty"`
	AbortsPerFailover float64 `json:"aborts_per_failover,omitempty"`
	HandoffBytes      uint64  `json:"handoff_bytes,omitempty"`
	HandoffNs         int64   `json:"handoff_ns,omitempty"`
	// MsgsPerOp is the frames on the wire per committed root (the
	// tcp/msgs-per-root and tcp/msgs-per-repeat-root rows only): a count,
	// gated exactly.
	MsgsPerOp float64 `json:"msgs_per_op,omitempty"`
	// WritesPerFrame is the write calls per frame sent (the
	// tcp/writes-per-frame row only): a count, gated under a ceiling.
	WritesPerFrame float64 `json:"writes_per_frame,omitempty"`
	// Package and Lines are a loc/ row's package directory (or "total")
	// and lines of Go; Ops is then its number of files.
	Package string `json:"package,omitempty"`
	Lines   int    `json:"lines,omitempty"`
}

func main() {
	figure := flag.String("figure", "3", "workload figure to sweep (2..5)")
	jsonOut := flag.String("json", "", "also benchmark directory sharding and write results to this file (e.g. BENCH_results.json)")
	smoke := flag.Bool("smoke", false, "fast CI check: assert the byte/message trace is FetchConcurrency-invariant, the gather wall-clock improves, and bytes_moved/ns_per_op/allocs_per_op have not regressed vs -baseline")
	baseline := flag.String("baseline", "BENCH_results.json", "committed results the smoke check compares bytes_moved against (\"\" disables)")
	writeBytes := flag.Int("write-bytes", 0, "cap each declared write at this many bytes (0 = whole attribute) — prices the figure grid under a field-sized write schema where sub-page deltas flow")
	calibrate := flag.Bool("calibrate", false, "run the -workload spec on the simulator and on an in-process TCP cluster, write the predicted-vs-measured table into the -json file (default BENCH_results.json), and gate on model accuracy")
	workloadArg := flag.String("workload", "zipf-hot", "workload spec for -calibrate: a preset name or a JSON spec file")
	flag.Parse()

	if *calibrate {
		path := *jsonOut
		if path == "" {
			path = "BENCH_results.json"
		}
		if err := runCalibrate(*workloadArg, path); err != nil {
			fmt.Fprintln(os.Stderr, "lotec-bench: calibrate:", err)
			os.Exit(1)
		}
		return
	}

	spec, err := sim.FigureByID(*figure)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lotec-bench:", err)
		os.Exit(1)
	}
	spec.Workload.WriteBytes = *writeBytes

	if *smoke {
		if err := runSmoke(spec); err != nil {
			fmt.Fprintln(os.Stderr, "lotec-bench: smoke:", err)
			os.Exit(1)
		}
		if *baseline != "" {
			if err := checkBaseline(spec, *baseline); err != nil {
				fmt.Fprintln(os.Stderr, "lotec-bench: smoke:", err)
				os.Exit(1)
			}
			if err := checkPerfLedger(*baseline); err != nil {
				fmt.Fprintln(os.Stderr, "lotec-bench: smoke:", err)
				os.Exit(1)
			}
			if err := checkMsgsPerRoot(*baseline); err != nil {
				fmt.Fprintln(os.Stderr, "lotec-bench: smoke:", err)
				os.Exit(1)
			}
			if err := checkDataRoot(*baseline); err != nil {
				fmt.Fprintln(os.Stderr, "lotec-bench: smoke:", err)
				os.Exit(1)
			}
		}
		if err := checkWritesPerFrame(); err != nil {
			fmt.Fprintln(os.Stderr, "lotec-bench: smoke:", err)
			os.Exit(1)
		}
		if err := smokeAvailability(*baseline); err != nil {
			fmt.Fprintln(os.Stderr, "lotec-bench: smoke:", err)
			os.Exit(1)
		}
		return
	}

	if *jsonOut != "" {
		if err := writeJSON(spec, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "lotec-bench:", err)
			os.Exit(1)
		}
		return
	}

	res, err := sim.RunFigure(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lotec-bench:", err)
		os.Exit(1)
	}
	obj := res.HottestObject()
	fmt.Printf("Workload of figure %s; pricing object %v (hottest) under all network parameters.\n\n", spec.ID, obj)
	for _, bw := range netmodel.Networks {
		fmt.Print(res.TimeTable(bw))
		fmt.Println()
	}
	fmt.Println(res.CountersTable())
}

// benchDoc is the whole of BENCH_results.json. The figure benchmarks
// (writeJSON) and the calibrate loop (runCalibrate) each own one section
// and preserve the other's on rewrite, so CI can refresh them
// independently. Workload/SpecHash/Seed stamp the provenance of the figure
// rows: which spec generated the traffic, under which seed.
type benchDoc struct {
	Figure      string        `json:"figure,omitempty"`
	Workload    string        `json:"workload,omitempty"`
	SpecHash    string        `json:"spec_hash,omitempty"`
	Seed        int64         `json:"seed,omitempty"`
	Results     []benchResult `json:"results,omitempty"`
	Calibration *calibration  `json:"calibration,omitempty"`
}

// readBenchDoc loads path, or returns an empty document when it does not
// exist yet.
func readBenchDoc(path string) (*benchDoc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &benchDoc{}, nil
		}
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func writeBenchDoc(path string, doc *benchDoc) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// figureProvenance identifies a figure's traffic the same way spec-compiled
// workloads are identified: the legacy config wrapped as a spec, hashed.
func figureProvenance(spec sim.FigureSpec) (name, hash string, seed int64) {
	cfg := spec.Workload
	s := workload.Spec{Name: "figure" + spec.ID, Seed: cfg.Seed, Legacy: &cfg}
	return s.Name, s.Hash(), cfg.Seed
}

// writeJSON times the figure workload per protocol and the sharded
// directory's acquire/release path, then writes every result to path.
func writeJSON(spec sim.FigureSpec, path string) error {
	var results []benchResult

	for _, p := range []core.Protocol{core.COTEC, core.OTEC, core.LOTEC} {
		// Fresh workload per run: clusters mutate installed class state.
		w, err := sim.GenerateWorkload(spec.Workload)
		if err != nil {
			return err
		}
		start := time.Now()
		c, _, err := w.Execute(sim.Config{Protocol: p})
		if err != nil {
			return fmt.Errorf("%s workload: %w", p.Name(), err)
		}
		elapsed := time.Since(start)
		n := len(c.Results())
		stages := c.Recorder().TransferStages(0)
		results = append(results, benchResult{
			Op:           "workload/figure" + spec.ID,
			Protocol:     p.Name(),
			Ops:          n,
			NsPerOp:      float64(elapsed.Nanoseconds()) / float64(n),
			BytesMoved:   c.Recorder().Totals().DataBytes,
			Transfers:    stages.Transfers,
			XferPlanNs:   stages.Plan.Nanoseconds(),
			XferGatherNs: stages.Gather.Nanoseconds(),
			XferApplyNs:  stages.Apply.Nanoseconds(),
		})
		fmt.Printf("workload/figure%s  %-6s %8d ops  %12.0f ns/op  %10d bytes  gather %v\n",
			spec.ID, p.Name(), n, results[len(results)-1].NsPerOp, results[len(results)-1].BytesMoved, stages.Gather)
	}

	sweep, err := sweepFetchConcurrency(spec)
	if err != nil {
		return err
	}
	results = append(results, sweep...)

	deltas, err := sweepDelta(spec)
	if err != nil {
		return err
	}
	results = append(results, deltas...)

	for _, shards := range []int{1, 2, 4, 8} {
		nsPerOp, ops, err := benchDirectory(shards)
		if err != nil {
			return fmt.Errorf("directory bench (%d shards): %w", shards, err)
		}
		results = append(results, benchResult{
			Op:      fmt.Sprintf("directory/acquire-release/shards=%d", shards),
			Shards:  shards,
			Ops:     ops,
			NsPerOp: nsPerOp,
		})
		fmt.Printf("directory/acquire-release  %d shard(s) %8d ops  %12.0f ns/op\n", shards, ops, nsPerOp)
	}

	perf, err := perfLedger()
	if err != nil {
		return err
	}
	results = append(results, perf...)

	msgs, err := msgsPerRootRows()
	if err != nil {
		return err
	}
	for _, row := range msgs {
		fmt.Printf("%-32s %10d ops  %6.3f msgs/op\n", row.Op, row.Ops, row.MsgsPerOp)
	}
	results = append(results, msgs...)

	writes, err := writesPerFrameRow()
	if err != nil {
		return err
	}
	fmt.Printf("%-32s %10d frames  %6.3f writes/frame\n", writes.Op, writes.Ops, writes.WritesPerFrame)
	results = append(results, writes)

	dataRoot, err := dataRootRow()
	if err != nil {
		return err
	}
	fmt.Printf("%-32s %10d ops  %6.0f B/op  %6.2f allocs/op\n", dataRoot.Op, dataRoot.Ops, dataRoot.AllocBytesPerOp, dataRoot.AllocsPerOp)
	results = append(results, dataRoot)

	loc, err := locRows(".")
	if err != nil {
		return err
	}
	results = append(results, loc...)

	doc, err := readBenchDoc(path)
	if err != nil {
		return err
	}
	doc.Figure = spec.ID
	doc.Workload, doc.SpecHash, doc.Seed = figureProvenance(spec)
	doc.Results = results
	if err := writeBenchDoc(path, doc); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(results))
	return nil
}

// sweepFetchConcurrency runs the figure's workload under LOTEC at transfer
// fan-out bounds 1, 4 and 16. The byte/message trace must be identical at
// every setting (that invariant is enforced here, not just measured); only
// the modeled gather wall-clock may move, and it is what the sweep reports.
func sweepFetchConcurrency(spec sim.FigureSpec) ([]benchResult, error) {
	var results []benchResult
	var baseBytes, baseMsgs int64
	for _, k := range []int{1, 4, 16} {
		w, err := sim.GenerateWorkload(spec.Workload)
		if err != nil {
			return nil, err
		}
		c, _, err := w.Execute(sim.Config{Protocol: core.LOTEC, FetchConcurrency: k})
		if err != nil {
			return nil, fmt.Errorf("fetch-concurrency sweep (k=%d): %w", k, err)
		}
		tot := c.Recorder().Totals()
		if k == 1 {
			baseBytes, baseMsgs = tot.TotalBytes(), int64(tot.Msgs)
		} else if tot.TotalBytes() != baseBytes || int64(tot.Msgs) != baseMsgs {
			return nil, fmt.Errorf(
				"fetch-concurrency sweep: trace not invariant at k=%d: %d bytes/%d msgs, serial %d/%d",
				k, tot.TotalBytes(), tot.Msgs, baseBytes, baseMsgs)
		}
		stages := c.Recorder().TransferStages(0)
		results = append(results, benchResult{
			Op:               fmt.Sprintf("workload/figure%s/fetch-concurrency", spec.ID),
			Protocol:         core.LOTEC.Name(),
			FetchConcurrency: k,
			Ops:              stages.Transfers,
			NsPerOp:          float64(stages.Gather.Nanoseconds()) / float64(stages.Transfers),
			BytesMoved:       tot.DataBytes,
			Transfers:        stages.Transfers,
			XferPlanNs:       stages.Plan.Nanoseconds(),
			XferGatherNs:     stages.Gather.Nanoseconds(),
			XferApplyNs:      stages.Apply.Nanoseconds(),
		})
		fmt.Printf("workload/figure%s/fetch-concurrency  k=%-2d %6d transfers  gather %v\n",
			spec.ID, k, stages.Transfers, stages.Gather)
	}
	return results, nil
}

// sweepDelta runs the figure's workload under LOTEC with field-sized write
// schemas (8 B, 64 B) and the historical whole-attribute schema, deltas on,
// and reports what each moved: total data bytes, the delta/full split, and
// heap allocations per committed root (the delta path pools its payload
// buffers, so allocations must not grow with write count).
func sweepDelta(spec sim.FigureSpec) ([]benchResult, error) {
	var results []benchResult
	for _, wb := range []int{8, 64, 0} {
		cfg := spec.Workload
		cfg.WriteBytes = wb
		w, err := sim.GenerateWorkload(cfg)
		if err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		c, _, err := w.Execute(sim.Config{Protocol: core.LOTEC})
		if err != nil {
			return nil, fmt.Errorf("delta sweep (wb=%d): %w", wb, err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		n := len(c.Results())
		cnt := c.Recorder().Counters()
		results = append(results, benchResult{
			Op:              fmt.Sprintf("workload/figure%s/delta", spec.ID),
			Protocol:        core.LOTEC.Name(),
			WriteBytes:      wb,
			Ops:             n,
			NsPerOp:         float64(elapsed.Nanoseconds()) / float64(n),
			BytesMoved:      c.Recorder().Totals().DataBytes,
			DeltaBytes:      cnt.DeltaBytes,
			DeltaSavedBytes: cnt.DeltaSavedBytes,
			DeltaFallbacks:  cnt.DeltaFallbacks,
			AllocsPerOp:     float64(after.Mallocs-before.Mallocs) / float64(n),
		})
		label := "page"
		if wb > 0 {
			label = fmt.Sprintf("%dB", wb)
		}
		r := results[len(results)-1]
		fmt.Printf("workload/figure%s/delta  writes=%-5s %10d bytes  delta %8d B  saved %8d B  %6.0f allocs/op\n",
			spec.ID, label, r.BytesMoved, r.DeltaBytes, r.DeltaSavedBytes, r.AllocsPerOp)
	}
	return results, nil
}

// Slack factors for the wall-clock and allocation regression gates.
// bytes_moved is exactly reproducible on the virtual clock and gets no
// slack; ns_per_op is real time on a shared CI machine and gets a wide
// band that still catches order-of-magnitude regressions; allocs_per_op is
// nearly deterministic (runtime background allocation is the only noise)
// and gets a tight one.
const (
	smokeNsSlack     = 3.0
	smokeAllocsSlack = 1.25
)

// checkBaseline is the regression gate against the committed
// BENCH_results.json: it reruns the figure's LOTEC workload
// (whole-attribute and small-write schemas — both exactly reproducible on
// the virtual clock) and fails if any moves more data than the committed
// run recorded, runs slower than smokeNsSlack× its committed ns_per_op,
// allocates more than smokeAllocsSlack× its committed allocs_per_op, or if
// the 8-byte-write schema stops clearing a 25% saving over the committed
// whole-attribute run.
func checkBaseline(spec sim.FigureSpec, path string) error {
	doc, err := readBenchDoc(path)
	if err != nil {
		return err
	}
	if len(doc.Results) == 0 {
		fmt.Printf("smoke: no results in %s; skipping regression gates\n", path)
		return nil
	}
	find := func(op string, wb int) *benchResult {
		for i := range doc.Results {
			r := &doc.Results[i]
			if r.Op == op && r.Protocol == core.LOTEC.Name() && r.WriteBytes == wb {
				return r
			}
		}
		return nil
	}
	run := func(wb int) (measured benchResult, err error) {
		cfg := spec.Workload
		cfg.WriteBytes = wb
		w, err := sim.GenerateWorkload(cfg)
		if err != nil {
			return benchResult{}, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		c, _, err := w.Execute(sim.Config{Protocol: core.LOTEC})
		if err != nil {
			return benchResult{}, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		n := len(c.Results())
		return benchResult{
			Ops:         n,
			NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
			AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
			BytesMoved:  c.Recorder().Totals().DataBytes,
		}, nil
	}
	gate := func(label string, committed *benchResult, got benchResult) error {
		if got.BytesMoved > committed.BytesMoved {
			return fmt.Errorf("bytes_moved regressed: %s moves %d B, committed %d B",
				label, got.BytesMoved, committed.BytesMoved)
		}
		if committed.NsPerOp > 0 && got.NsPerOp > committed.NsPerOp*smokeNsSlack {
			return fmt.Errorf("ns_per_op regressed: %s runs at %.0f ns/op, committed %.0f (limit %.0fx)",
				label, got.NsPerOp, committed.NsPerOp, smokeNsSlack)
		}
		if committed.AllocsPerOp > 0 && got.AllocsPerOp > committed.AllocsPerOp*smokeAllocsSlack {
			return fmt.Errorf("allocs_per_op regressed: %s allocates %.0f/op, committed %.0f (limit %.2fx)",
				label, got.AllocsPerOp, committed.AllocsPerOp, smokeAllocsSlack)
		}
		return nil
	}

	full := find("workload/figure"+spec.ID, 0)
	if full == nil {
		fmt.Printf("smoke: %s has no figure %s LOTEC row; skipping regression gate\n", path, spec.ID)
		return nil
	}
	got, err := run(0)
	if err != nil {
		return err
	}
	if err := gate("figure "+spec.ID+" LOTEC", full, got); err != nil {
		return err
	}
	fmt.Printf("smoke ok: figure %s LOTEC bytes_moved %d B (committed %d B), %.0f ns/op (committed %.0f)\n",
		spec.ID, got.BytesMoved, full.BytesMoved, got.NsPerOp, full.NsPerOp)

	for _, wb := range []int{8, 64} {
		cur, err := run(wb)
		if err != nil {
			return err
		}
		if row := find("workload/figure"+spec.ID+"/delta", wb); row != nil {
			if err := gate(fmt.Sprintf("%d B-write schema", wb), row, cur); err != nil {
				return err
			}
		}
		if wb == 8 {
			if limit := full.BytesMoved * 3 / 4; cur.BytesMoved > limit {
				return fmt.Errorf("delta saving eroded: 8 B-write schema moves %d B, must stay ≤ 75%% of the committed full-write run (%d B)",
					cur.BytesMoved, limit)
			}
		}
		fmt.Printf("smoke ok: figure %s LOTEC %d B-write bytes_moved %d B, %.0f allocs/op\n",
			spec.ID, wb, cur.BytesMoved, cur.AllocsPerOp)
	}
	return nil
}

// runSmoke is the CI gate on the data plane's core invariant: identical
// byte/message traces at FetchConcurrency 1 and 4, with the modeled gather
// wall-clock no worse — and strictly better when any transfer fanned out.
func runSmoke(spec sim.FigureSpec) error {
	type snap struct {
		trace  []stats.MsgRecord
		totals stats.ObjStats
		gather time.Duration
		multi  int // transfers with more than one per-site batch
	}
	run := func(k int) (snap, error) {
		w, err := sim.GenerateWorkload(spec.Workload)
		if err != nil {
			return snap{}, err
		}
		c, _, err := w.Execute(sim.Config{Protocol: core.LOTEC, FetchConcurrency: k})
		if err != nil {
			return snap{}, err
		}
		rec := c.Recorder()
		s := snap{trace: rec.Trace(), totals: rec.Totals(), gather: rec.TransferStages(0).Gather}
		for _, t := range rec.Transfers() {
			if t.Batches > 1 {
				s.multi++
			}
		}
		return s, nil
	}
	serial, err := run(1)
	if err != nil {
		return err
	}
	overlapped, err := run(4)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(serial.totals, overlapped.totals) {
		return fmt.Errorf("totals diverge: %+v vs %+v", serial.totals, overlapped.totals)
	}
	if len(serial.trace) != len(overlapped.trace) {
		return fmt.Errorf("trace lengths diverge: %d vs %d", len(serial.trace), len(overlapped.trace))
	}
	for i := range serial.trace {
		if !reflect.DeepEqual(serial.trace[i], overlapped.trace[i]) {
			return fmt.Errorf("trace record %d diverges: %+v vs %+v", i, serial.trace[i], overlapped.trace[i])
		}
	}
	if overlapped.gather > serial.gather {
		return fmt.Errorf("gather wall-clock regressed: %v at k=4 vs %v serial", overlapped.gather, serial.gather)
	}
	if serial.multi > 0 && overlapped.gather >= serial.gather {
		return fmt.Errorf("%d transfers fanned out but gather did not improve: %v vs %v",
			serial.multi, overlapped.gather, serial.gather)
	}
	fmt.Printf("smoke ok: figure %s, %d msgs invariant, gather %v (k=1) → %v (k=4), %d fanned-out transfers\n",
		spec.ID, len(serial.trace), serial.gather, overlapped.gather, serial.multi)
	return nil
}

// benchDirectory times write-acquire + release round trips against a
// sharded directory under concurrent load: 8 sites hammer 512 registered
// objects with single-object transactions over disjoint object ranges (so
// every acquire grants immediately and the lock-service path itself is what
// is measured). Each release scans its partition's entries, so throughput
// scales with the partition count even on one core.
func benchDirectory(shards int) (nsPerOp float64, ops int, err error) {
	const (
		objects = 512
		workers = 8
		iters   = 2000
	)
	s := directory.NewSharded(shards, workers)
	for o := ids.ObjectID(1); o <= objects; o++ {
		if err := s.Register(o, 1, 1); err != nil {
			return 0, 0, err
		}
	}
	var (
		nextFam  atomic.Uint64
		wg       sync.WaitGroup
		errOnce  sync.Once
		benchErr error
	)
	span := objects / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			site := ids.NodeID(w + 1)
			for i := 0; i < iters; i++ {
				obj := ids.ObjectID(w*span + i%span + 1)
				fam := ids.FamilyID(nextFam.Add(1))
				ref := ids.TxRef{Tx: ids.TxID(fam), Node: site}
				if _, _, err := s.Acquire(obj, ref, fam, uint64(fam), site, o2pl.Write); err != nil {
					errOnce.Do(func() { benchErr = err })
					return
				}
				if _, _, err := s.Release(fam, site, false, []gdo.ObjectRelease{{Obj: obj}}); err != nil {
					errOnce.Do(func() { benchErr = err })
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if benchErr != nil {
		return 0, 0, benchErr
	}
	ops = workers * iters
	return float64(elapsed.Nanoseconds()) / float64(ops), ops, nil
}
