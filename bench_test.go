package lotec

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5). Each BenchmarkFigureN executes that figure's workload —
// identical seeded input per protocol — and reports the quantities the
// paper plots as custom metrics:
//
//	data-KB/op    consistency page payload moved (Figures 2–5's y-axis)
//	msgs/op       messages exchanged
//	xfer-ms/op    total message time for the hottest object under the
//	              figure's network (Figures 6–8's y-axis, at 1 µs software
//	              cost; lotec-bench prints the full software-cost sweep)
//
// Run with: go test -bench=. -benchmem
// Regenerate the full printed tables with: go run ./cmd/lotec-sim -figure all

import (
	"fmt"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/netmodel"
	"lotec/internal/o2pl"
	"lotec/internal/pstore"
	"lotec/internal/sim"
	"lotec/internal/txn"
	"lotec/internal/wire"
)

// benchFigure runs one figure's workload per protocol as sub-benchmarks.
func benchFigure(b *testing.B, id string) {
	spec, err := sim.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	protocols := spec.Protocols
	if protocols == nil {
		protocols = core.All()
	}
	w, err := sim.GenerateWorkload(spec.Workload)
	if err != nil {
		b.Fatal(err)
	}
	bw, timeFigure := netmodel.Gigabit, false
	switch id {
	case "6":
		bw, timeFigure = netmodel.Ethernet10, true
	case "7":
		bw, timeFigure = netmodel.Ethernet100, true
	case "8":
		bw, timeFigure = netmodel.Gigabit, true
	}
	_ = timeFigure
	for _, p := range protocols {
		b.Run(p.Name(), func(b *testing.B) {
			var dataBytes, msgs int64
			var xfer time.Duration
			for i := 0; i < b.N; i++ {
				c, objs, err := w.Execute(sim.Config{Protocol: p})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range c.Results() {
					if r.Err != nil {
						b.Fatalf("root failed: %v", r.Err)
					}
				}
				t := c.Recorder().Totals()
				dataBytes, msgs = t.DataBytes, int64(t.Msgs)
				// Hottest object's transfer time at the figure's bandwidth.
				hot, hotBytes := ids.ObjectID(-1), int64(-1)
				for _, o := range objs {
					if s := c.Recorder().Object(o); s.TotalBytes() > hotBytes {
						hotBytes, hot = s.TotalBytes(), o
					}
				}
				xfer = c.Recorder().TransferTime(hot, bw.WithSoftwareCost(time.Microsecond))
			}
			b.ReportMetric(float64(dataBytes)/1024, "data-KB/op")
			b.ReportMetric(float64(msgs), "msgs/op")
			b.ReportMetric(float64(xfer.Microseconds())/1000, "xfer-ms/op")
		})
	}
}

// Figures 2–5: bytes transferred per shared object under the four
// contention/size scenarios.

func BenchmarkFigure2_MediumObjectsHighContention(b *testing.B)     { benchFigure(b, "2") }
func BenchmarkFigure3_LargeObjectsHighContention(b *testing.B)      { benchFigure(b, "3") }
func BenchmarkFigure4_MediumObjectsModerateContention(b *testing.B) { benchFigure(b, "4") }
func BenchmarkFigure5_LargeObjectsModerateContention(b *testing.B)  { benchFigure(b, "5") }

// Figures 6–8: total message time for an arbitrary (hottest) shared object
// at 10 Mbps / 100 Mbps / 1 Gbps across software costs.

func BenchmarkFigure6_TransferTime10Mbps(b *testing.B)  { benchFigure(b, "6") }
func BenchmarkFigure7_TransferTime100Mbps(b *testing.B) { benchFigure(b, "7") }
func BenchmarkFigure8_TransferTime1Gbps(b *testing.B)   { benchFigure(b, "8") }

// BenchmarkExtension_RCComparison runs the §6 Release Consistency variant
// against the three EC protocols.
func BenchmarkExtension_RCComparison(b *testing.B) { benchFigure(b, "rc") }

// BenchmarkHeadline_AggregateBytes reproduces the §5 headline: aggregate
// OTEC/COTEC and LOTEC/OTEC byte ratios over Figures 2–5. Reported as
// ratio×100 metrics.
func BenchmarkHeadline_AggregateBytes(b *testing.B) {
	var oc, lo float64
	for i := 0; i < b.N; i++ {
		var sumC, sumO, sumL int64
		for _, id := range []string{"2", "3", "4", "5"} {
			spec, err := sim.FigureByID(id)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.RunFigure(spec)
			if err != nil {
				b.Fatal(err)
			}
			for _, run := range res.Runs {
				t := run.Recorder.Totals().DataBytes
				switch run.Protocol {
				case "COTEC":
					sumC += t
				case "OTEC":
					sumO += t
				case "LOTEC":
					sumL += t
				}
			}
		}
		oc = float64(sumO) / float64(sumC)
		lo = float64(sumL) / float64(sumO)
	}
	b.ReportMetric(oc*100, "OTEC/COTEC-%")
	b.ReportMetric(lo*100, "LOTEC/OTEC-%")
}

// Ablation benches: the design-choice studies DESIGN.md lists.

// BenchmarkAblation_PredictionWidth measures LOTEC bytes as declared sets
// widen toward the whole object (LOTEC → OTEC degeneration).
func BenchmarkAblation_PredictionWidth(b *testing.B) {
	for _, widen := range []int{0, 2, 8} {
		b.Run(fmt.Sprintf("widen-%d", widen), func(b *testing.B) {
			spec, err := sim.FigureByID("3")
			if err != nil {
				b.Fatal(err)
			}
			cfg := spec.Workload
			cfg.Transactions = 80
			cfg.PredictionWiden = widen
			w, err := sim.GenerateWorkload(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var data int64
			for i := 0; i < b.N; i++ {
				c, _, err := w.Execute(sim.Config{Protocol: core.LOTEC})
				if err != nil {
					b.Fatal(err)
				}
				data = c.Recorder().Totals().DataBytes
			}
			b.ReportMetric(float64(data)/1024, "data-KB/op")
		})
	}
}

// BenchmarkAblation_LockingOverhead reports the §5.1 local/global lock
// operation split on the figure-2 workload.
func BenchmarkAblation_LockingOverhead(b *testing.B) {
	spec, err := sim.FigureByID("2")
	if err != nil {
		b.Fatal(err)
	}
	w, err := sim.GenerateWorkload(spec.Workload)
	if err != nil {
		b.Fatal(err)
	}
	var local, global int64
	for i := 0; i < b.N; i++ {
		c, _, err := w.Execute(sim.Config{Protocol: core.LOTEC})
		if err != nil {
			b.Fatal(err)
		}
		cnt := c.Recorder().Counters()
		local, global = cnt.LocalLockOps, cnt.GlobalLockOps
	}
	b.ReportMetric(float64(local), "local-locks/op")
	b.ReportMetric(float64(global), "global-locks/op")
}

// BenchmarkAblation_ObjectGranularity sweeps object size at constant data
// volume: coarser objects need fewer (global) lock operations (§5.1).
func BenchmarkAblation_ObjectGranularity(b *testing.B) {
	for _, shape := range []struct{ objects, minP, maxP int }{
		{80, 1, 2}, {20, 5, 7}, {10, 11, 13},
	} {
		b.Run(fmt.Sprintf("%dx%d-%dp", shape.objects, shape.minP, shape.maxP), func(b *testing.B) {
			cfg := sim.WorkloadConfig{
				Seed: 77, Objects: shape.objects, MinPages: shape.minP, MaxPages: shape.maxP,
				Transactions: 100, Nodes: 8,
				HotFraction: 0.25, HotWeight: 0.85,
				ArrivalSpacing: 200 * time.Microsecond,
			}
			w, err := sim.GenerateWorkload(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var global, commits int64
			for i := 0; i < b.N; i++ {
				c, _, err := w.Execute(sim.Config{Protocol: core.LOTEC})
				if err != nil {
					b.Fatal(err)
				}
				cnt := c.Recorder().Counters()
				global, commits = cnt.GlobalLockOps, cnt.Commits
			}
			b.ReportMetric(float64(global)/float64(commits), "global-locks/commit")
		})
	}
}

// BenchmarkAblation_DemandFetch measures the §4.3 demand-fetch fallback as
// prediction accuracy degrades (lenient mode).
func BenchmarkAblation_DemandFetch(b *testing.B) {
	for _, prob := range []float64{0, 0.3} {
		b.Run(fmt.Sprintf("mispredict-%.1f", prob), func(b *testing.B) {
			spec, err := sim.FigureByID("2")
			if err != nil {
				b.Fatal(err)
			}
			cfg := spec.Workload
			cfg.Transactions = 80
			cfg.MispredictProb = prob
			w, err := sim.GenerateWorkload(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var demand int64
			for i := 0; i < b.N; i++ {
				c, _, err := w.Execute(sim.Config{Protocol: core.LOTEC, Lenient: true})
				if err != nil {
					b.Fatal(err)
				}
				demand = c.Recorder().Counters().DemandFetches
			}
			b.ReportMetric(float64(demand), "demand-fetches/op")
		})
	}
}

// Micro-benchmarks of the substrates.

// BenchmarkMicro_LocalLockAcquireRelease measures the intra-family fast
// path (Alg 4.1 local arm).
func BenchmarkMicro_LocalLockAcquireRelease(b *testing.B) {
	mgr := txn.NewManager()
	root := mgr.Begin(1)
	entry := o2pl.NewEntry(1, root.Family(), o2pl.Write)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := mgr.BeginChild(root)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := entry.Acquire(child, o2pl.Write); err != nil {
			b.Fatal(err)
		}
		entry.PreCommit(child)
		if err := mgr.PreCommit(child); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_GDOAcquireRelease measures one global lock round trip
// through the directory (Alg 4.2 + 4.4).
func BenchmarkMicro_GDOAcquireRelease(b *testing.B) {
	d := gdo.New(8)
	if err := d.Register(1, 10, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fam := ids.FamilyID(i + 1)
		ref := ids.TxRef{Tx: ids.TxID(i + 1), Node: 2}
		if _, _, err := d.Acquire(1, ref, fam, uint64(fam), 2, o2pl.Write); err != nil {
			b.Fatal(err)
		}
		if _, _, err := d.Release(fam, 2, true, []gdo.ObjectRelease{{Obj: 1, Dirty: []ids.PageNum{0}}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_PageStoreWriteUndo measures a shadow-logged page write and
// rollback.
func BenchmarkMicro_PageStoreWriteUndo(b *testing.B) {
	st := pstore.NewStore(4096)
	if err := st.Register(1, 4); err != nil {
		b.Fatal(err)
	}
	if err := st.Materialize(1); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := pstore.NewUndoLog()
		if err := l.SnapshotBefore(st, 1, []ids.PageNum{0}); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Write(1, 0, buf); err != nil {
			b.Fatal(err)
		}
		l.Undo(st)
	}
}

// BenchmarkMicro_WireRoundTrip measures encoding+decoding a page-bearing
// message.
func BenchmarkMicro_WireRoundTrip(b *testing.B) {
	m := &wire.MultiFetchResp{Objs: []wire.ObjPayload{{Obj: 1, Pages: []wire.PagePayload{
		{Page: 0, Version: 3, Data: make([]byte, 4096)},
		{Page: 1, Version: 3, Data: make([]byte, 4096)},
	}}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := wire.Encode(wire.Envelope{ReqID: uint64(i), From: 1, To: 2}, m)
		if _, _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(m.Size()))
}

// BenchmarkMicro_EndToEndTransaction measures one whole cross-node root
// transaction (lock round trip + transfer + commit) on a 2-node simulated
// cluster.
func BenchmarkMicro_EndToEndTransaction(b *testing.B) {
	w, err := sim.GenerateWorkload(sim.WorkloadConfig{
		Seed: 5, Objects: 2, MinPages: 2, MaxPages: 2,
		Transactions: 1, Nodes: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Execute(sim.Config{Protocol: core.LOTEC}); err != nil {
			b.Fatal(err)
		}
	}
}
