// lotec-sim regenerates the paper's evaluation: every figure of §5, the
// headline protocol comparison, and the ablations DESIGN.md calls out.
//
// Usage:
//
//	lotec-sim -figure all        # Figures 2–8 plus the RC extension
//	lotec-sim -figure 3          # one figure
//	lotec-sim -headline          # §5 aggregate byte ratios
//	lotec-sim -ablation all      # prediction/granularity/demand/disorder
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lotec/internal/core"
	"lotec/internal/fault"
	"lotec/internal/ids"
	"lotec/internal/sim"
	"lotec/internal/workload"
)

func main() {
	figure := flag.String("figure", "", "figure to regenerate: 2..8, rc, or all")
	headline := flag.Bool("headline", false, "print the §5 headline byte ratios")
	ablation := flag.String("ablation", "", "ablation to run: prediction, granularity, demand, disorder, faults, delta, or all")
	workloadArg := flag.String("workload", "", "run a spec workload (a preset name or a JSON spec file; see EXPERIMENTS.md) and print per-class KPIs")
	jsonOut := flag.String("json", "", "with -workload: also write machine-readable results (provenance, per-class KPIs, traffic totals) to this file")
	delta := flag.String("delta", "on", "sub-page delta transfers: on (default) or off (pre-delta wire traffic, byte-identical)")
	faultPlan := flag.String("fault-plan", "", `network fault plan for -figure and -workload runs: a preset (drop, delay, dup, reorder, partition, crash, chaos) or clause list like "drop(p=0.1);delay(p=0.2,d=1ms)"`)
	faultSeed := flag.Uint64("fault-seed", 1, "seed driving the fault plan's random draws")
	replicas := flag.Int("replicas", 0, "with -workload: run the replicated directory control plane on this many dedicated host nodes (0 = the directory co-located with the sites; replicated runs use 4 shards spread across the hosts)")
	reshard := flag.String("reshard", "", `with -workload and -replicas ≥ 2: hand a shard to another host mid-run, "shard=S,target=NODE,at=DUR" (e.g. "shard=0,target=6,at=2ms")`)
	availability := flag.Bool("availability", false, "run the control-plane availability sweep (primary kill and reshard-under-load at 1, 2 and 3 replicas) and print the table")
	flag.Parse()

	if *figure == "" && !*headline && *ablation == "" && *workloadArg == "" && !*availability {
		flag.Usage()
		os.Exit(2)
	}
	if *delta != "on" && *delta != "off" {
		fmt.Fprintln(os.Stderr, "lotec-sim: -delta must be on or off")
		os.Exit(2)
	}
	if *availability {
		rows, err := sim.RunAvailability(*faultSeed, []int{1, 2, 3})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lotec-sim:", err)
			os.Exit(1)
		}
		fmt.Print(sim.AvailabilityTable(rows))
		return
	}
	if *workloadArg != "" {
		if err := runWorkload(*workloadArg, *jsonOut, *delta == "off", *faultPlan, *faultSeed, *replicas, *reshard); err != nil {
			fmt.Fprintln(os.Stderr, "lotec-sim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *figure, *headline, *ablation, *delta == "off", *faultPlan, *faultSeed); err != nil {
		fmt.Fprintln(os.Stderr, "lotec-sim:", err)
		os.Exit(1)
	}
}

// simReport is lotec-sim's machine-readable -workload output: everything
// needed to reproduce the run (spec name, hash, seeds) plus what it did.
type simReport struct {
	Provenance workload.Provenance `json:"provenance"`
	Protocol   string              `json:"protocol"`
	Roots      int                 `json:"roots"`
	KPIs       []workload.ClassKPI `json:"kpis"`
	BytesMoved int64               `json:"bytes_moved"`
	Msgs       int                 `json:"msgs"`
}

// parseReshard decodes the -reshard clause "shard=S,target=NODE,at=DUR".
func parseReshard(s string) (shard int, target ids.NodeID, at time.Duration, err error) {
	shard, target, at = -1, 0, -1
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return 0, 0, 0, fmt.Errorf("-reshard: %q is not key=value", part)
		}
		switch k {
		case "shard":
			_, err = fmt.Sscanf(v, "%d", &shard)
		case "target":
			var n int
			_, err = fmt.Sscanf(v, "%d", &n)
			target = ids.NodeID(n)
		case "at":
			at, err = time.ParseDuration(v)
		default:
			return 0, 0, 0, fmt.Errorf("-reshard: unknown key %q", k)
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("-reshard: %s: %w", k, err)
		}
	}
	if shard < 0 || target == 0 || at < 0 {
		return 0, 0, 0, fmt.Errorf("-reshard: need shard=S,target=NODE,at=DUR, got %q", s)
	}
	return shard, target, at, nil
}

// runWorkload compiles a spec and runs it on the simulator under LOTEC,
// printing the per-class KPI table and optionally a JSON report.
func runWorkload(arg, jsonPath string, deltaOff bool, faultPlan string, faultSeed uint64, replicas int, reshard string) error {
	spec, err := workload.LoadSpec(arg)
	if err != nil {
		return err
	}
	w, err := workload.Compile(spec)
	if err != nil {
		return err
	}
	var faults *fault.Plan
	if faultPlan != "" {
		plan, err := fault.Parse(faultPlan, faultSeed)
		if err != nil {
			return fmt.Errorf("fault plan: %w", err)
		}
		faults = plan
	}
	cfg := sim.Config{Protocol: core.LOTEC, DeltaOff: deltaOff, Faults: faults}
	if faults != nil {
		cfg.MaxRetries = 100
	}
	if replicas > 0 {
		cfg.Replicas = replicas
		cfg.DirectoryShards = 4
		cfg.SpreadShards = true
		if cfg.MaxRetries == 0 {
			cfg.MaxRetries = 100
		}
	}
	if reshard != "" && replicas < 2 {
		return fmt.Errorf("-reshard needs -replicas ≥ 2 (another host must be able to receive the shard)")
	}
	t0 := time.Now()
	sw := sim.WrapWorkload(w)
	var c *sim.Cluster
	if reshard != "" {
		shard, target, at, err := parseReshard(reshard)
		if err != nil {
			return err
		}
		cfg.Nodes, cfg.PageSize = w.Cfg.Nodes, w.Cfg.PageSize
		if c, err = sim.NewCluster(cfg); err != nil {
			return err
		}
		objs, err := sw.Install(c)
		if err != nil {
			return err
		}
		if err := sw.SubmitAll(c, objs); err != nil {
			return err
		}
		if err := c.Reshard(at, shard, target); err != nil {
			return err
		}
		if err := c.Run(); err != nil {
			return err
		}
		for _, o := range c.Reshards() {
			if !o.OK {
				return fmt.Errorf("reshard of shard %d to node %d failed: %v", o.Shard, o.Target, o.Err)
			}
			fmt.Printf("reshard: shard %d → node %d, %d state bytes\n", o.Shard, o.Target, o.Bytes)
		}
	} else if c, _, err = sw.Execute(cfg); err != nil {
		return err
	}
	col := workload.NewKPICollector(w.ClassNames)
	for _, r := range c.Results() {
		root := w.Roots[r.Tag.(int)]
		col.Observe(root.Class, int64(r.Done-r.At), r.Err == nil)
	}
	prov := w.Provenance()
	if faults != nil {
		prov.FaultPlan, prov.FaultSeed = faultPlan, faultSeed
	}
	rep := simReport{
		Provenance: prov,
		Protocol:   core.LOTEC.Name(),
		Roots:      len(w.Roots),
		KPIs:       col.Rows(),
		BytesMoved: c.Recorder().Totals().DataBytes,
		Msgs:       c.Recorder().MsgCount(),
	}

	fmt.Printf("workload %s (spec %.12s, seed %d): %d roots on %d nodes (regenerated in %v)\n",
		prov.Workload, prov.SpecHash, prov.Seed, rep.Roots, w.Cfg.Nodes, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("%-10s %8s %8s %8s %10s %12s %12s %12s\n",
		"class", "roots", "commits", "aborts", "abort_rate", "lat_p50", "lat_p95", "lat_p99")
	for _, k := range rep.KPIs {
		fmt.Printf("%-10s %8d %8d %8d %10.3f %12v %12v %12v\n",
			k.Class, k.Roots, k.Commits, k.Aborts, k.AbortRate,
			time.Duration(k.LatP50Ns), time.Duration(k.LatP95Ns), time.Duration(k.LatP99Ns))
	}
	fmt.Printf("traffic: %d data bytes, %d msgs\n", rep.BytesMoved, rep.Msgs)

	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// run writes the requested figures, headline and ablations to w.
func run(w io.Writer, figure string, headline bool, ablation string, deltaOff bool, faultPlan string, faultSeed uint64) error {
	var faults *fault.Plan
	if faultPlan != "" {
		plan, err := fault.Parse(faultPlan, faultSeed)
		if err != nil {
			return fmt.Errorf("fault plan: %w", err)
		}
		faults = plan
	}
	if figure != "" {
		specs := sim.FigureSpecs()
		if figure != "all" {
			spec, err := sim.FigureByID(figure)
			if err != nil {
				return err
			}
			specs = []sim.FigureSpec{spec}
		}
		for _, spec := range specs {
			t0 := time.Now()
			res, err := sim.RunFigureConfig(spec, sim.Config{DeltaOff: deltaOff, Faults: faults})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "(regenerated in %v)\n%s\n", time.Since(t0).Round(time.Millisecond), res.Render())
		}
	}
	if headline {
		out, err := sim.Headline()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	}
	if ablation != "" {
		all := map[string]func() (string, error){
			"prediction":  sim.PredictionWidthAblation,
			"granularity": sim.GranularityAblation,
			"demand":      sim.DemandFetchAblation,
			"disorder":    sim.DisorderAblation,
			"faults":      sim.FaultSweepAblation,
			"delta":       sim.DeltaAblation,
		}
		names := []string{"prediction", "granularity", "demand", "disorder", "faults", "delta"}
		if ablation != "all" {
			fn, ok := all[ablation]
			if !ok {
				return fmt.Errorf("unknown ablation %q", ablation)
			}
			all = map[string]func() (string, error){ablation: fn}
			names = []string{ablation}
		}
		for _, n := range names {
			out, err := all[n]()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, out)
		}
	}
	return nil
}
