// Command benchmark is the repository's benchmark: four named workloads over
// an in-process TCP deployment of the LOTEC runtime, end-to-end metrics
// measured with no recorder attached, and a traced run plus layer probes
// that give the per-layer numbers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lotec/internal/stats"
)

// Fixed timing of every run; only the window length comes from -seconds.
const (
	warmup          = 3 * time.Second
	grace           = 15 * time.Second
	slicesPerSecond = 5
	setupRounds     = 31
	// A traced invocation runs the workload twice (untraced reference, then
	// traced), each for a quarter of -seconds after tracedWarmup.
	tracedWarmup = 1500 * time.Millisecond
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line the benchmark contract asks for.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance is recorded next to every result.
type provenance struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	ScheduleHash string         `json:"schedule_hash"`
	Trace        bool           `json:"trace"`
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	WarmupS      float64        `json:"warmup_s"`
	WindowS      float64        `json:"window_s"`
	Slices       int            `json:"slices"`
	Samples      map[string]int `json:"samples"`
	// Timings are the timings of an end-to-end run, which carry no bound.
	Timings map[string]metric `json:"timings,omitempty"`
	// The values the per-slice and per-round metrics were taken from.
	SliceRate   []float64 `json:"slice_commits_per_s,omitempty"`
	SliceP50    []float64 `json:"slice_latency_p50_ms,omitempty"`
	SliceCPU    []float64 `json:"slice_cpu_ms_per_commit,omitempty"`
	SetupRounds []float64 `json:"setup_rounds_s,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the objects, call trees and arrival times")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, recorder off; 1: per-layer metrics from a traced run and the layer probes")
	probesOnly := flag.Bool("probes", false, "run only the layer probes")
	out := flag.String("out", "benchmark/out", "directory for traces and result files")
	flag.Parse()

	if *probesOnly {
		m, err := runProbes()
		if err != nil {
			fatal(err)
		}
		printMetrics("layer probes", m)
		return
	}
	run := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []spec{sp}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace))
	}
	ok := true
	for _, sp := range run {
		var rep *report
		var prov *provenance
		var err error
		plan := runPlan{warmup: warmup, window: time.Duration(*seconds) * time.Second, slices: *seconds * slicesPerSecond, grace: grace, inflightCap: inflightCap}
		if *trace == 1 {
			plan.warmup, plan.window, plan.slices = tracedWarmup, plan.window/4, max(plan.slices/4, 1)
			rep, prov, err = runTraced(sp, *seed, plan, *out)
		} else {
			rep, prov, err = runEndToEnd(sp, *seed, plan)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		printMetrics(fmt.Sprintf("%s (seed %d, schedule %s)", sp.name, prov.Seed, prov.ScheduleHash), rep.Metrics)
		if prov.Timings != nil {
			printMetrics("timings of this run (no bound)", prov.Timings)
		}
		if err := writeResult(*out, rep, prov); err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// setup generates the schedule and starts the cluster, and reports how long
// both took together.
func setup(sp spec, seed int64, rec *stats.Recorder, tr *tracer) (*cluster, time.Duration, error) {
	start := time.Now()
	sched, err := generate(sp, seed)
	if err != nil {
		return nil, 0, err
	}
	// An address reserved for the cluster can be taken by another process
	// before the server binds it; a new set of addresses cures that.
	var c *cluster
	for attempt := 0; attempt < 3; attempt++ {
		if c, err = startCluster(sched, rec, tr); err == nil {
			return c, time.Since(start), nil
		}
	}
	return nil, 0, err
}

func newProvenance(c *cluster, plan runPlan, traced bool) *provenance {
	return &provenance{
		Workload:     c.sched.spec.name,
		Seed:         c.sched.seed,
		ScheduleHash: c.sched.hash,
		Trace:        traced,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		WarmupS:      plan.warmup.Seconds(),
		WindowS:      plan.window.Seconds(),
		Slices:       plan.slices,
		Samples:      map[string]int{},
	}
}

// verify is the correctness check of a finished run: no root returned an
// error, none is still running, and the audit of the quiet cluster passes.
func verify(c *cluster, res *runResult) error {
	if res.runErr != nil {
		return res.runErr
	}
	if res.unfinished > 0 {
		return fmt.Errorf("%d roots unfinished %v after the window; audit skipped", res.unfinished, res.plan.grace)
	}
	return c.audit.check(c)
}

// runEndToEnd measures a workload with no recorder and no spans.
func runEndToEnd(sp spec, seed int64, plan runPlan) (*report, *provenance, error) {
	// Set-up is timed setupRounds times and reported as the rounds' median,
	// which repeated more closely between runs than their better end did
	// (single rounds of one run range from 20 to 45 ms); the last cluster is
	// the one measured.
	var c *cluster
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if c != nil {
			c.close()
		}
		var d time.Duration
		var err error
		if c, d, err = setup(sp, seed, nil, nil); err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer c.close()
	heapBefore := heapInUse()
	res := c.drive(plan)
	s := summarize(res)
	res.samples = nil
	retained := float64(heapInUse()) - float64(heapBefore)

	rep := &report{Attempted: s.attempted, Failed: s.failed, Correct: true}
	if err := verify(c, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: INCORRECT:", err)
		rep.Correct = false
	}
	rep.Metrics = map[string]metric{
		"slo_share":              {s.sloShare, "share"},
		"retained_kb_per_commit": {retained / 1024 / float64(max(s.completed, 1)), "KiB"},
		"setup_s":                {quantileF(setups, 0.5), "s"},
	}
	prov := newProvenance(c, plan, false)
	// The timings of this run. They are per-layer metrics (see layers.go), so
	// --trace 1 reports them from its own, shorter, untraced run; these are
	// the better measurement and go to the result file.
	prov.Timings = map[string]metric{
		"commits_per_s":     {s.commitsPerS, "1/s"},
		"latency_p50_ms":    {s.p50ms, "ms"},
		"latency_p99_ms":    {s.p99ms, "ms"},
		"cpu_ms_per_commit": {s.cpuMsPerCommit, "ms"},
	}
	prov.SliceRate, prov.SliceP50, prov.SliceCPU, prov.SetupRounds = s.sliceRate, s.sliceP50, s.sliceCPU, setups
	prov.Samples["latency_p50_ms.per_slice_min"] = s.p50n
	prov.Samples["attempted"] = s.attempted
	prov.Samples["completed_with_warmup"] = s.completed
	prov.Samples["refused"] = res.refused
	prov.Samples["max_in_flight"] = res.maxInflight
	prov.Samples["skipped_by_generator"] = res.skipped
	prov.Samples["unfinished"] = res.unfinished
	return rep, prov, nil
}

// printMetrics lists every metric by name with its unit.
func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("== %s\n", title)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// writeResult stores the report with its provenance under the out directory.
func writeResult(dir string, rep *report, prov *provenance) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if prov.Trace {
		mode = "traced"
	}
	data, err := json.MarshalIndent(struct {
		Provenance *provenance `json:"provenance"`
		Result     *report     `json:"result"`
	}{prov, rep}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-%s.json", prov.Workload, mode)), append(data, '\n'), 0o644)
}
