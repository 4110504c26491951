// lotec-bench explores the network-parameter space of §5: it runs one
// figure's workload per protocol and prices the hottest object's message
// trace under every bandwidth × software-cost combination — the full grid
// behind Figures 6–8, for finding where LOTEC's smaller-but-more-numerous
// messages win or lose.
//
// It also keeps the ledger, BENCH_results.json: a table of entries, each of
// which measures some of its rows and may gate them. With -json it runs
// every entry and writes every row; with -smoke it runs every gated entry
// and holds the rows to the committed ones. Run it from the module root.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path"

	"lotec/internal/netmodel"
	"lotec/internal/sim"
	"lotec/internal/workload"
)

// benchResult is one line of BENCH_results.json.
type benchResult struct {
	// Op names the benchmark ("workload/figure3", "perf/codec-encode").
	Op string `json:"op"`
	// Protocol is the consistency protocol, where one applies.
	Protocol string `json:"protocol,omitempty"`
	// Ops is the number of operations timed.
	Ops int `json:"ops"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// WriteBytes is the write schema of a delta-sweep row: each declared
	// write touches only this many bytes of its attribute (absent =
	// historical whole-attribute writes).
	WriteBytes int `json:"write_bytes,omitempty"`
	// BytesMoved is the consistency data traffic of the run (simulated
	// runs only).
	BytesMoved int64 `json:"bytes_moved"`
	// Delta-transfer split of BytesMoved (delta sweep rows only):
	// bytes that moved as dirty-range deltas, the full-page bytes those
	// deltas replaced minus their encoded size, and how many pages fell
	// back to a full payload.
	DeltaBytes      int64 `json:"delta_bytes,omitempty"`
	DeltaSavedBytes int64 `json:"delta_saved_bytes,omitempty"`
	DeltaFallbacks  int64 `json:"delta_fallbacks,omitempty"`
	// AllocsPerOp is heap allocations per operation: per committed root
	// on the figure, delta and data-root rows.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// AllocBytesPerOp is heap bytes allocated per committed root (the
	// tcp/alloc-bytes-per-data-root row only, next to its AllocsPerOp).
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op,omitempty"`
	// Transfer-pipeline breakdown (simulated runs only): total transfers
	// and the summed per-stage wall clock on the cluster's virtual clock.
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
	// MsgsPerOp is the frames on the wire per committed root or per object
	// created (the tcp/msgs-per-* rows only): a count, gated exactly.
	MsgsPerOp float64 `json:"msgs_per_op,omitempty"`
	// WritesPerFrame is the write calls per frame sent (the
	// tcp/writes-per-frame row only): a count, gated under a ceiling.
	WritesPerFrame float64 `json:"writes_per_frame,omitempty"`
	// Package and Lines are a loc/ row's package directory (or "total")
	// and lines of Go; Ops is then its number of files.
	Package string `json:"package,omitempty"`
	Lines   int    `json:"lines,omitempty"`
}

// ledger is the committed BENCH_results.json that -smoke gates against.
const ledger = "BENCH_results.json"

func main() {
	figure := flag.String("figure", "3", "workload figure to sweep (2..5)")
	jsonOut := flag.String("json", "", "run every ledger entry and write its rows to this file (e.g. BENCH_results.json)")
	smoke := flag.Bool("smoke", false, "fast CI check: run every gated ledger entry and hold its rows to the committed "+ledger+", which it only reads")
	writeBytes := flag.Int("write-bytes", 0, "cap each declared write at this many bytes (0 = whole attribute) — prices the figure grid under a field-sized write schema where sub-page deltas flow")
	calibrate := flag.Bool("calibrate", false, "run the -workload spec on the simulator and on an in-process TCP cluster, write the predicted-vs-measured table into the -json file (default "+ledger+"), and gate on model accuracy")
	workloadArg := flag.String("workload", "zipf-hot", "workload spec for -calibrate: a preset name or a JSON spec file")
	flag.Parse()

	err := func() error {
		if *calibrate {
			return runCalibrate(*workloadArg, cmp.Or(*jsonOut, ledger))
		}
		spec, err := sim.FigureByID(*figure)
		if err != nil {
			return err
		}
		spec.Workload.WriteBytes = *writeBytes
		b := &bench{spec: spec, runs: map[figureKey]*figureRun{}}
		switch {
		case *smoke:
			return checkLedger(b.entries(), ledger)
		case *jsonOut != "":
			return b.record(*jsonOut)
		}
		return grid(spec)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lotec-bench:", err)
		os.Exit(1)
	}
}

// grid prices the hottest object's trace of the figure's workload under
// every bandwidth × software-cost combination.
func grid(spec sim.FigureSpec) error {
	res, err := sim.RunFigure(spec)
	if err != nil {
		return err
	}
	obj := res.HottestObject()
	fmt.Printf("Workload of figure %s; pricing object %v (hottest) under all network parameters.\n\n", spec.ID, obj)
	for _, bw := range netmodel.Networks {
		fmt.Print(res.TimeTable(bw))
		fmt.Println()
	}
	fmt.Println(res.CountersTable())
	return nil
}

// benchDoc is the whole of BENCH_results.json. The ledger table (-json)
// and the calibrate loop (-calibrate) each own one section and preserve
// the other's on rewrite, so they can be refreshed independently.
// Workload/SpecHash/Seed stamp the provenance of the figure rows: which
// spec generated the traffic, under which seed.
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

// entry is one line of the ledger table: the rows of op (a path.Match
// pattern when one run records several ops), how they are measured, and,
// unless nil, how -smoke holds a fresh row to its committed one.
type entry struct {
	op   string
	run  func() ([]benchResult, error)
	gate func(committed, got benchResult) error
}

func (e entry) owns(op string) bool {
	ok, _ := path.Match(e.op, op)
	return ok
}

// bench is one invocation: the figure whose workload the simulated entries
// run, and the simulator runs they share.
type bench struct {
	spec sim.FigureSpec
	runs map[figureKey]*figureRun
}

func (b *bench) figureOp(suffix string) string { return "workload/figure" + b.spec.ID + suffix }

// entries is the ledger table: every row of BENCH_results.json comes from
// exactly one entry.
func (b *bench) entries() []entry {
	return []entry{
		{b.figureOp(""), b.figureRows, noWorse(0)},
		{b.figureOp("/delta"), b.deltaRows, noWorse(0)},
		{availabilityOp, availabilityRows, recorded},
		{"perf/*", perfRows, noWorse(0.5)},
		{"tcp/msgs-per-*", msgsPerRootRows, sameMsgs},
		{writesPerFrameOp, writesPerFrameRows, underWritesCeiling},
		{dataRootOp, dataRootRows, noWorse(0.5)},
		{"loc/*", func() ([]benchResult, error) { return locRows(".") }, nil},
	}
}

// rows runs the entry, prints its rows, and checks that it recorded only
// ops it owns.
func (e entry) rows() ([]benchResult, error) {
	rows, err := e.run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.op, err)
	}
	for _, r := range rows {
		if !e.owns(r.Op) {
			return nil, fmt.Errorf("entry %s recorded a %s row", e.op, r.Op)
		}
		line, _ := json.Marshal(r)
		fmt.Printf("%s\n", line)
	}
	return rows, nil
}

// record runs every entry and writes all their rows to path, keeping the
// calibration section already there.
func (b *bench) record(path string) error {
	var results []benchResult
	for _, e := range b.entries() {
		rows, err := e.rows()
		if err != nil {
			return err
		}
		results = append(results, rows...)
	}
	doc, err := readBenchDoc(path)
	if err != nil {
		return err
	}
	doc.Figure = b.spec.ID
	doc.Workload, doc.SpecHash, doc.Seed = figureProvenance(b.spec)
	doc.Results = results
	if err := writeBenchDoc(path, doc); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", path, len(results))
	return nil
}

// rowKey names a row in the ledger: its op and the fields that tell the
// rows of one op apart.
func rowKey(r benchResult) string {
	return fmt.Sprintf("%s[%s wb=%d replicas=%d %s]", r.Op, r.Protocol, r.WriteBytes, r.Replicas, r.Package)
}

// checkLedger runs every gated entry and holds each row to the row of the
// same key in the ledger at path, which it only reads. A row the ledger
// lacks fails the check: the ledger is stale and must be re-recorded.
func checkLedger(entries []entry, path string) error {
	doc, err := readBenchDoc(path)
	if err != nil {
		return err
	}
	committed := make(map[string]benchResult, len(doc.Results))
	for _, r := range doc.Results {
		committed[rowKey(r)] = r
	}
	for _, e := range entries {
		if e.gate == nil {
			continue
		}
		rows, err := e.rows()
		if err != nil {
			return err
		}
		for _, got := range rows {
			base, ok := committed[rowKey(got)]
			if !ok {
				return fmt.Errorf("%s has no %s row; re-record it with make bench", path, rowKey(got))
			}
			if err := e.gate(base, got); err != nil {
				return fmt.Errorf("%s: %w", rowKey(got), err)
			}
		}
		fmt.Printf("smoke ok: %s, %d rows\n", e.op, len(rows))
	}
	return nil
}

// Slack factors for the regression gates. bytes_moved is exactly
// reproducible on the virtual clock and gets none; ns_per_op is real time
// on a shared CI machine and gets a wide band that still catches
// order-of-magnitude regressions; allocations are nearly deterministic
// (runtime background allocation is the only noise) and get a tight one.
const (
	nsSlack     = 3.0
	allocsSlack = 1.25
)

// noWorse is the regression gate of a measured row: no more bytes moved
// than committed, ns_per_op within nsSlack×, and allocations per op and
// allocated bytes per op within allocsSlack×. pad is absolute headroom on
// the allocation count, so a path committed at zero allocations still
// fails on the first real one.
func noWorse(pad float64) func(committed, got benchResult) error {
	return func(c, g benchResult) error {
		switch {
		case g.BytesMoved > c.BytesMoved:
			return fmt.Errorf("bytes_moved regressed: %d B, committed %d B", g.BytesMoved, c.BytesMoved)
		case g.NsPerOp > c.NsPerOp*nsSlack:
			return fmt.Errorf("ns_per_op regressed: %.0f, committed %.0f (limit %gx)", g.NsPerOp, c.NsPerOp, nsSlack)
		case g.AllocsPerOp > c.AllocsPerOp*allocsSlack+pad:
			return fmt.Errorf("allocs_per_op regressed: %.2f, committed %.2f (limit %.2f)", g.AllocsPerOp, c.AllocsPerOp, c.AllocsPerOp*allocsSlack+pad)
		case g.AllocBytesPerOp > c.AllocBytesPerOp*allocsSlack:
			return fmt.Errorf("alloc_bytes_per_op regressed: %.0f B, committed %.0f B (limit %gx)", g.AllocBytesPerOp, c.AllocBytesPerOp, allocsSlack)
		}
		return nil
	}
}

// sameMsgs holds a frame count to the committed one exactly: it is a
// property of the protocol, not of the machine.
func sameMsgs(c, g benchResult) error {
	if g.MsgsPerOp != c.MsgsPerOp {
		return fmt.Errorf("%v frames per op, committed %v", g.MsgsPerOp, c.MsgsPerOp)
	}
	return nil
}

func underWritesCeiling(_, g benchResult) error {
	if g.WritesPerFrame > maxWritesPerFrame {
		return fmt.Errorf("%.3f writes per frame over %d frames, limit %.2f", g.WritesPerFrame, g.Ops, maxWritesPerFrame)
	}
	return nil
}

// recorded is the gate of an entry whose checks all live in its run: -smoke
// runs it and needs its committed rows, and holds them to nothing else.
func recorded(_, _ benchResult) error { return nil }
