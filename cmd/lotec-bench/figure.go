package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"lotec/internal/core"
	"lotec/internal/sim"
	"lotec/internal/stats"
)

// The simulated entries: the figure's workload per protocol, swept over
// the transfer fan-out bound and over field-sized write schemas, and the
// replicated directory's availability experiment. Everything but the wall
// clock and the allocation counts is exactly reproducible on the virtual
// clock.

// figureRun is one execution of the figure's workload on the simulator:
// its traffic, and the wall clock and heap allocations it cost per root.
type figureRun struct {
	rec    *stats.Recorder
	roots  int
	ns     float64
	allocs float64
}

type figureKey struct {
	protocol         string
	fetchConcurrency int
	writeBytes       int
}

// figure runs the figure's workload under p, at transfer fan-out bound k
// and with each declared write capped at wb bytes (0 = whole attribute),
// once per invocation: the LOTEC run at the simulator's default k = 4 and
// whole-attribute writes feeds the figure row, the k = 4 fan-out row and
// the whole-attribute delta row alike.
func (b *bench) figure(p core.Protocol, k, wb int) (*figureRun, error) {
	key := figureKey{p.Name(), k, wb}
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
	c, _, err := w.Execute(sim.Config{Protocol: p, FetchConcurrency: k})
	if err != nil {
		return nil, fmt.Errorf("%s at k=%d, write bytes %d: %w", p.Name(), k, wb, err)
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
		r, err := b.figure(p, 4, b.spec.Workload.WriteBytes)
		if err != nil {
			return nil, err
		}
		row := r.stageRow(b.figureOp(""), p)
		row.Ops, row.NsPerOp, row.AllocsPerOp = r.roots, r.ns, r.allocs
		rows = append(rows, row)
	}
	return rows, nil
}

// fetchConcurrencyRows runs the figure's workload under LOTEC at transfer
// fan-out bounds 1, 4 and 16. The data plane's core invariant is enforced
// here, so it holds whenever the rows are recorded or gated: every bound
// sends the serial run's trace record for record, and the modeled gather
// wall clock — the one thing a row reports that may move — is no worse
// than serial, and strictly better when any transfer fanned out.
func (b *bench) fetchConcurrencyRows() ([]benchResult, error) {
	var rows []benchResult
	var serial *figureRun
	multi := 0 // serial transfers that gathered from more than one site
	for _, k := range []int{1, 4, 16} {
		r, err := b.figure(core.LOTEC, k, b.spec.Workload.WriteBytes)
		if err != nil {
			return nil, err
		}
		row := r.stageRow(b.figureOp("/fetch-concurrency"), core.LOTEC)
		row.FetchConcurrency, row.Ops = k, row.Transfers
		row.NsPerOp = float64(row.XferGatherNs) / float64(row.Transfers)
		rows = append(rows, row)
		if k == 1 {
			serial = r
			for _, t := range r.rec.Transfers() {
				if t.Batches > 1 {
					multi++
				}
			}
			continue
		}
		if err := sameTrace(serial.rec, r.rec); err != nil {
			return nil, fmt.Errorf("k=%d against k=1: %w", k, err)
		}
		got, base := time.Duration(row.XferGatherNs), serial.rec.TransferStages(0).Gather
		if got > base || multi > 0 && got >= base {
			return nil, fmt.Errorf("%d transfers fanned out but gather went %v (k=1) → %v (k=%d)", multi, base, got, k)
		}
	}
	return rows, nil
}

// sameTrace reports the first difference between two runs' message traces.
func sameTrace(a, b *stats.Recorder) error {
	if ta, tb := a.Totals(), b.Totals(); ta != tb {
		return fmt.Errorf("totals diverge: %+v vs %+v", ta, tb)
	}
	ta, tb := a.Trace(), b.Trace()
	if len(ta) != len(tb) {
		return fmt.Errorf("trace lengths diverge: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if !reflect.DeepEqual(ta[i], tb[i]) {
			return fmt.Errorf("trace record %d diverges: %+v vs %+v", i, ta[i], tb[i])
		}
	}
	return nil
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
		r, err := b.figure(core.LOTEC, 4, wb)
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
