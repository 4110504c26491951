package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/stats"
)

// FigureSpec defines one experiment of the paper's §5 evaluation: a
// workload plus the protocols to compare on it.
type FigureSpec struct {
	// ID is the figure identifier ("2".."8", "rc", or an ablation name).
	ID string
	// Title is the paper's caption (or the ablation description).
	Title string
	// Workload is the generated input, identical across protocols.
	Workload WorkloadConfig
	// Protocols to run; defaults to the paper's three.
	Protocols []core.Protocol
}

// Figure workload parameters. "Medium" objects are 1–5 pages and "large"
// ones 10–20 (§5); high contention concentrates 85 % of accesses on a
// quarter of the objects, moderate contention spreads them evenly.
func mediumHigh() WorkloadConfig {
	return WorkloadConfig{
		Seed: 42, Objects: 20, MinPages: 1, MaxPages: 5,
		Transactions: 200, Nodes: 8,
		HotFraction: 0.25, HotWeight: 0.85,
		ArrivalSpacing: 150 * time.Microsecond,
		// The paper's methods access most of each object ("only a subset of
		// which are normally updated" still leaves LOTEC a 5–10 % win over
		// OTEC); widening the declared sets reproduces that band.
		PredictionWiden: 1,
	}
}

func largeHigh() WorkloadConfig {
	c := mediumHigh()
	c.Seed = 43
	c.MinPages, c.MaxPages = 10, 20
	c.Transactions = 150
	c.ArrivalSpacing = 400 * time.Microsecond
	c.PredictionWiden = 5
	return c
}

func mediumModerate() WorkloadConfig {
	c := mediumHigh()
	c.Seed = 44
	c.Objects = 100
	c.Transactions = 300
	c.HotFraction, c.HotWeight = 0.5, 0.5
	return c
}

func largeModerate() WorkloadConfig {
	c := largeHigh()
	c.Seed = 45
	c.Objects = 100
	c.Transactions = 200
	c.HotFraction, c.HotWeight = 0.5, 0.5
	return c
}

// FigureSpecs returns every reproducible experiment, in the paper's order.
func FigureSpecs() []FigureSpec {
	return []FigureSpec{
		{ID: "2", Title: "Medium Sized Objects with High Contention (bytes/object)", Workload: mediumHigh()},
		{ID: "3", Title: "Large Sized Objects with High Contention (bytes/object)", Workload: largeHigh()},
		{ID: "4", Title: "Medium Sized Objects with Moderate Contention (bytes/object)", Workload: mediumModerate()},
		{ID: "5", Title: "Large Sized Objects with Moderate Contention (bytes/object)", Workload: largeModerate()},
		{ID: "6", Title: "Example Transfer Time at 10Mbps (µs vs software cost)", Workload: largeHigh()},
		{ID: "7", Title: "Example Transfer Time at 100Mbps (µs vs software cost)", Workload: largeHigh()},
		{ID: "8", Title: "Example Transfer Time at 1Gbps (µs vs software cost)", Workload: largeHigh()},
		{ID: "rc", Title: "Release Consistency extension (§6) vs the EC protocols", Workload: mediumHigh(),
			Protocols: core.AllWithRC()},
	}
}

// FigureByID resolves a figure specification.
func FigureByID(id string) (FigureSpec, error) {
	for _, s := range FigureSpecs() {
		if s.ID == id {
			return s, nil
		}
	}
	return FigureSpec{}, fmt.Errorf("sim: unknown figure %q", id)
}

// figureNetwork maps the time figures to their bandwidth preset.
func figureNetwork(id string) (netmodel.Params, bool) {
	switch id {
	case "6":
		return netmodel.Ethernet10, true
	case "7":
		return netmodel.Ethernet100, true
	case "8":
		return netmodel.Gigabit, true
	default:
		return netmodel.Params{}, false
	}
}

// ProtocolRun is the outcome of one protocol on the figure's workload.
type ProtocolRun struct {
	Protocol  string
	Recorder  *stats.Recorder
	Objects   []ids.ObjectID
	PerObject map[ids.ObjectID]stats.ObjStats
	Counters  stats.Counters
}

// FigureResult is a fully executed figure.
type FigureResult struct {
	Spec FigureSpec
	Runs []ProtocolRun
}

// RunFigure executes the figure's workload once per protocol and verifies
// that every root committed and the page map is coherent.
func RunFigure(spec FigureSpec) (*FigureResult, error) {
	return RunFigureConfig(spec, Config{})
}

// RunFigureConfig is RunFigure with a base cluster config (e.g. DeltaOff
// or a fault plan); the figure's workload still sets nodes,
// page size, protocol and leniency.
func RunFigureConfig(spec FigureSpec, base Config) (*FigureResult, error) {
	protocols := spec.Protocols
	if len(protocols) == 0 {
		protocols = core.All()
	}
	w, err := GenerateWorkload(spec.Workload)
	if err != nil {
		return nil, fmt.Errorf("figure %s: %w", spec.ID, err)
	}
	res := &FigureResult{Spec: spec}
	for _, p := range protocols {
		cfg := base
		cfg.Protocol = p
		c, objs, err := w.Execute(cfg)
		if err != nil {
			return nil, fmt.Errorf("figure %s (%s): %w", spec.ID, p.Name(), err)
		}
		for _, r := range c.Results() {
			if r.Err != nil {
				return nil, fmt.Errorf("figure %s (%s): root failed: %w", spec.ID, p.Name(), r.Err)
			}
		}
		if err := c.VerifyPageMapCoherence(); err != nil {
			return nil, fmt.Errorf("figure %s (%s): %w", spec.ID, p.Name(), err)
		}
		res.Runs = append(res.Runs, ProtocolRun{
			Protocol:  p.Name(),
			Recorder:  c.Recorder(),
			Objects:   objs,
			PerObject: c.Recorder().PerObject(),
			Counters:  c.Recorder().Counters(),
		})
	}
	return res, nil
}

// Run looks up a run by protocol name.
func (r *FigureResult) Run(protocol string) (ProtocolRun, bool) {
	for _, run := range r.Runs {
		if run.Protocol == protocol {
			return run, true
		}
	}
	return ProtocolRun{}, false
}

// HottestObject returns the object with the most consistency traffic in the
// first run — the "arbitrary shared object" Figures 6–8 price.
func (r *FigureResult) HottestObject() ids.ObjectID {
	if len(r.Runs) == 0 {
		return stats.NoObject
	}
	run := r.Runs[0]
	best := stats.NoObject
	var bestBytes int64 = -1
	for _, obj := range run.Objects {
		if b := run.PerObject[obj].TotalBytes(); b > bestBytes {
			bestBytes = b
			best = obj
		}
	}
	return best
}

// BytesTable renders the per-object consistency bytes (page payload, the
// quantity Figures 2–5 plot) as aligned text: one row per shared object,
// one column per protocol.
func (r *FigureResult) BytesTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", r.Spec.ID, r.Spec.Title)
	fmt.Fprintf(&b, "%-8s", "Object")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%12s", run.Protocol)
	}
	b.WriteString("\n")
	if len(r.Runs) == 0 {
		return b.String()
	}
	objs := append([]ids.ObjectID(nil), r.Runs[0].Objects...)
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, obj := range objs {
		touched := false
		for _, run := range r.Runs {
			if run.PerObject[obj].Msgs > 0 {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		fmt.Fprintf(&b, "%-8v", obj)
		for _, run := range r.Runs {
			fmt.Fprintf(&b, "%12d", run.PerObject[obj].DataBytes)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-8s", "TOTAL")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%12d", run.Recorder.Totals().DataBytes)
	}
	b.WriteString("\n")
	return b.String()
}

// TimeTable prices the hottest object's message trace under the figure's
// bandwidth across the paper's five software costs (Figures 6–8).
func (r *FigureResult) TimeTable(bw netmodel.Params) string {
	obj := r.HottestObject()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s — object %v at %s\n", r.Spec.ID, r.Spec.Title, obj, bw.Name)
	fmt.Fprintf(&b, "%-10s", "SWCost")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%14s", run.Protocol)
	}
	b.WriteString("\n")
	for _, sc := range netmodel.SoftwareCosts {
		fmt.Fprintf(&b, "%-10v", sc)
		for _, run := range r.Runs {
			t := run.Recorder.TransferTime(obj, bw.WithSoftwareCost(sc))
			fmt.Fprintf(&b, "%12.0fµs", float64(t.Microseconds()))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Render produces the figure's report: the byte table for Figures 2–5 and
// the RC comparison, or the time table for Figures 6–8.
func (r *FigureResult) Render() string {
	if bw, ok := figureNetwork(r.Spec.ID); ok {
		return r.TimeTable(bw)
	}
	out := r.BytesTable()
	out += "\n" + r.CountersTable()
	return out
}

// CountersTable reports the §5.1 operation counters per protocol.
func (r *FigureResult) CountersTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s%12s%12s%10s%10s%10s%10s%10s\n",
		"Protocol", "LocalLock", "GlobalLock", "Demand", "Aborts", "Retries", "Commits", "Msgs")
	for _, run := range r.Runs {
		c := run.Counters
		fmt.Fprintf(&b, "%-10s%12d%12d%10d%10d%10d%10d%10d\n",
			run.Protocol, c.LocalLockOps, c.GlobalLockOps, c.DemandFetches,
			c.Aborts, c.Retries, c.Commits, run.Recorder.MsgCount())
	}
	return b.String()
}

// HeadlineRatios computes the §5 headline comparison over a figure's runs:
// OTEC/COTEC and LOTEC/OTEC consistency-byte ratios (the paper reports
// "OTEC generally outperforms COTEC by approximately 20–25 % while LOTEC
// outperforms OTEC by another 5–10 %").
func (r *FigureResult) HeadlineRatios() (otecOverCotec, lotecOverOtec float64, ok bool) {
	var cotec, otec, lotec int64
	for _, run := range r.Runs {
		switch run.Protocol {
		case "COTEC":
			cotec = run.Recorder.Totals().DataBytes
		case "OTEC":
			otec = run.Recorder.Totals().DataBytes
		case "LOTEC":
			lotec = run.Recorder.Totals().DataBytes
		}
	}
	if cotec == 0 || otec == 0 {
		return 0, 0, false
	}
	return float64(otec) / float64(cotec), float64(lotec) / float64(otec), true
}

// Headline runs the four byte figures and aggregates the §5 headline
// ratios across them.
func Headline() (string, error) {
	var b strings.Builder
	var sumC, sumO, sumL int64
	for _, id := range []string{"2", "3", "4", "5"} {
		spec, err := FigureByID(id)
		if err != nil {
			return "", err
		}
		res, err := RunFigure(spec)
		if err != nil {
			return "", err
		}
		var c, o, l int64
		for _, run := range res.Runs {
			t := run.Recorder.Totals().DataBytes
			switch run.Protocol {
			case "COTEC":
				c = t
			case "OTEC":
				o = t
			case "LOTEC":
				l = t
			}
		}
		sumC, sumO, sumL = sumC+c, sumO+o, sumL+l
		fmt.Fprintf(&b, "Figure %s: COTEC=%d OTEC=%d LOTEC=%d  (OTEC/COTEC=%.2f, LOTEC/OTEC=%.2f)\n",
			id, c, o, l, float64(o)/float64(c), float64(l)/float64(o))
	}
	fmt.Fprintf(&b, "AGGREGATE: COTEC=%d OTEC=%d LOTEC=%d  (OTEC/COTEC=%.2f, LOTEC/OTEC=%.2f)\n",
		sumC, sumO, sumL, float64(sumO)/float64(sumC), float64(sumL)/float64(sumO))
	fmt.Fprintf(&b, "Paper: OTEC beats COTEC by ~20-25%%; LOTEC beats OTEC by another 5-10%%.\n")
	return b.String(), nil
}
