package main

import (
	"fmt"
	"runtime"
	"time"

	"lotec/internal/core"
	"lotec/internal/sim"
	"lotec/internal/stats"
)

// The simulated entries: the figure's workload per protocol and over
// field-sized write schemas, and the replicated directory's availability
// experiment. Everything but the wall clock and the allocation counts is
// exactly reproducible on the virtual clock.

// figureRun is one execution of the figure's workload on the simulator:
// its traffic, and the wall clock and heap allocations it cost per root.
type figureRun struct {
	rec    *stats.Recorder
	roots  int
	ns     float64
	allocs float64
}

type figureKey struct {
	protocol   string
	writeBytes int
}

// figure runs the figure's workload under p with each declared write
// capped at wb bytes (0 = whole attribute), once per invocation: the LOTEC
// run with whole-attribute writes feeds the figure row and the
// whole-attribute delta row alike.
func (b *bench) figure(p core.Protocol, wb int) (*figureRun, error) {
	key := figureKey{p.Name(), wb}
	if r := b.runs[key]; r != nil {
		return r, nil
	}
	cfg := b.spec.Workload
	cfg.WriteBytes = wb
	// Fresh workload per run: clusters mutate installed class state.
	w, err := sim.GenerateWorkload(cfg)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	c, _, err := w.Execute(sim.Config{Protocol: p})
	if err != nil {
		return nil, fmt.Errorf("%s at write bytes %d: %w", p.Name(), wb, err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := len(c.Results())
	r := &figureRun{
		rec:    c.Recorder(),
		roots:  n,
		ns:     float64(elapsed.Nanoseconds()) / float64(n),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
	b.runs[key] = r
	return r, nil
}

// stageRow is a row with the run's data bytes and its transfer pipeline's
// per-stage wall clock on the virtual clock.
func (r *figureRun) stageRow(op string, p core.Protocol) benchResult {
	stages := r.rec.TransferStages(0)
	return benchResult{
		Op:           op,
		Protocol:     p.Name(),
		BytesMoved:   r.rec.Totals().DataBytes,
		Transfers:    stages.Transfers,
		XferPlanNs:   stages.Plan.Nanoseconds(),
		XferGatherNs: stages.Gather.Nanoseconds(),
		XferApplyNs:  stages.Apply.Nanoseconds(),
	}
}

// figureRows times the figure's workload under each protocol.
func (b *bench) figureRows() ([]benchResult, error) {
	var rows []benchResult
	for _, p := range []core.Protocol{core.COTEC, core.OTEC, core.LOTEC} {
		r, err := b.figure(p, b.spec.Workload.WriteBytes)
		if err != nil {
			return nil, err
		}
		row := r.stageRow(b.figureOp(""), p)
		row.Ops, row.NsPerOp, row.AllocsPerOp = r.roots, r.ns, r.allocs
		rows = append(rows, row)
	}
	return rows, nil
}

// deltaRows runs the figure's workload under LOTEC with field-sized write
// schemas (8 B, 64 B) and the whole-attribute one, deltas on, and reports
// what each moved — total data bytes and the delta/full split — and its
// heap allocations per root (the delta path pools its payload buffers, so
// allocations must not grow with write count). The delta win is enforced
// here: the 8 B schema must move at most 75 % of the whole-attribute run.
func (b *bench) deltaRows() ([]benchResult, error) {
	var rows []benchResult
	for _, wb := range []int{8, 64, 0} {
		r, err := b.figure(core.LOTEC, wb)
		if err != nil {
			return nil, err
		}
		cnt := r.rec.Counters()
		rows = append(rows, benchResult{
			Op:              b.figureOp("/delta"),
			Protocol:        core.LOTEC.Name(),
			WriteBytes:      wb,
			Ops:             r.roots,
			NsPerOp:         r.ns,
			BytesMoved:      r.rec.Totals().DataBytes,
			DeltaBytes:      cnt.DeltaBytes,
			DeltaSavedBytes: cnt.DeltaSavedBytes,
			DeltaFallbacks:  cnt.DeltaFallbacks,
			AllocsPerOp:     r.allocs,
		})
	}
	if small, full := rows[0].BytesMoved, rows[2].BytesMoved; small > full*3/4 {
		return nil, fmt.Errorf("delta saving eroded: the 8 B-write schema moves %d B, over 75 %% of the whole-attribute run's %d B", small, full)
	}
	return rows, nil
}

const availabilityOp = "replication/availability"

// availabilitySeed pins the availability experiment's workload; the run is
// virtual-clock deterministic, so its rows are stable across machines.
const availabilitySeed = 11

// availabilityRows runs the replicated directory's availability experiment
// — a primary kill and a reshard under load — at 2 and 3 replicas, and
// fails if a replicated topology loses a root, never fails over or
// promotes a backup, or ships an empty handoff.
func availabilityRows() ([]benchResult, error) {
	runs, err := sim.RunAvailability(availabilitySeed, []int{2, 3})
	if err != nil {
		return nil, err
	}
	var rows []benchResult
	for _, r := range runs {
		switch {
		case r.FailedRoots != 0:
			return nil, fmt.Errorf("replicas=%d lost %d/%d roots to a primary kill", r.Replicas, r.FailedRoots, r.Roots)
		case r.Failovers == 0 || r.FailoverP99 <= 0 || r.Promotions == 0:
			return nil, fmt.Errorf("replicas=%d: %d failovers and %d promotions under a primary kill", r.Replicas, r.Failovers, r.Promotions)
		case r.HandoffBytes == 0 || r.HandoffLatency <= 0:
			return nil, fmt.Errorf("replicas=%d: the reshard handoff shipped no state", r.Replicas)
		}
		rows = append(rows, benchResult{
			Op:                availabilityOp,
			Replicas:          r.Replicas,
			Ops:               r.Roots,
			FailoverP50Ns:     r.FailoverP50.Nanoseconds(),
			FailoverP99Ns:     r.FailoverP99.Nanoseconds(),
			Promotions:        r.Promotions,
			AbortsPerFailover: r.AbortsPerFailover,
			HandoffBytes:      r.HandoffBytes,
			HandoffNs:         r.HandoffLatency.Nanoseconds(),
		})
	}
	return rows, nil
}
