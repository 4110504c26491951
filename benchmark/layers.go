package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lotec/internal/stats"
)

// runTraced gives a workload's per-layer metrics: those of the traced run,
// then the layer probes, which run once the traced run's recorder, spans and
// cluster are garbage so that their heap does not tax the probes' timings.
func runTraced(sp spec, seed int64, plan runPlan, out string) (*report, *provenance, error) {
	rep, prov, err := tracedPair(sp, seed, plan, out)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	probes, err := runProbes()
	if err != nil {
		return nil, nil, err
	}
	maps.Copy(rep.Metrics, probes)
	return rep, prov, nil
}

// tracedPair runs the workload twice for the same length: once untraced, as
// the reference for the tracing overhead, and once with one stats.Recorder
// shared by every server and the benchmark's spans recorded.
func tracedPair(sp spec, seed int64, plan runPlan, out string) (*report, *provenance, error) {
	ref, _, err := setup(sp, seed, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	refRes := ref.drive(plan)
	refSum := summarize(refRes)
	refErr := verify(ref, refRes)
	ref.close()

	rec, tr := stats.NewRecorder(), newTracer()
	c, _, err := setup(sp, seed, rec, tr)
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	// Counts are taken over the whole traced run, warm-up included, from a
	// quiet cluster to a quiet cluster, so that per-commit ratios are exact;
	// the messages of set-up (object registration) are skipped.
	msgs0, ctr0 := rec.MsgCount(), rec.Counters()
	res := c.drive(plan)
	s := summarize(res)
	// The audit below moves pages, so the recorder is read first.
	layers := layerMetrics(rec, msgs0, ctr0, float64(max(s.completed, 1)))
	rep := &report{Attempted: s.attempted, Failed: s.failed, Correct: true}
	for _, err := range []error{refErr, verify(c, res)} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: INCORRECT:", err)
			rep.Correct = false
		}
	}
	if res.unfinished > 0 {
		// Roots still running would race with reading their spans.
		return nil, nil, fmt.Errorf("traced run: %d roots unfinished", res.unfinished)
	}
	from := int64(res.t0.Sub(tr.t0) + plan.warmup)
	st, err := tr.analyze(from, from+int64(plan.window))
	if err != nil {
		return nil, nil, err
	}

	rep.Metrics = layers
	maps.Copy(rep.Metrics, spanMetrics(st))
	// The recorder's cost comes in bursts (its one slice of records grows and
	// is collected), which the better-tail commits_per_s leaves out, so the
	// overhead compares what the two windows committed in all.
	overhead := 1 - ratio(float64(s.attempted-s.failed), float64(refSum.attempted-refSum.failed))
	rep.Metrics["stats.trace_overhead_share"] = metric{overhead, "share"}
	rep.Metrics["failed_share"] = metric{float64(s.failed+refSum.failed) / float64(max(s.attempted+refSum.attempted, 1)), "share"}
	// The timings of the untraced run. On a shared host none repeats closely
	// enough between runs to carry a bound (README, End-to-end metrics): the
	// host has slow phases that outlast a run, and whatever is robust to a
	// uniform slow-down of the host is blind to one of the program.
	rep.Metrics["commits_per_s"] = metric{refSum.commitsPerS, "1/s"}
	rep.Metrics["latency_p50_ms"] = metric{refSum.p50ms, "ms"}
	rep.Metrics["latency_p99_ms"] = metric{refSum.p99ms, "ms"}
	// CPU per commit moves with those phases too, and on the open-loop
	// workload, where the cores idle most of the time, it read 0.36 ms in some
	// sessions and 0.55 ms in others on the same code (a virtual host charges
	// the cost of waking idle cores differently from hour to hour).
	rep.Metrics["cpu_ms_per_commit"] = metric{refSum.cpuMsPerCommit, "ms"}
	openP99 := 0.0
	if sp.open {
		openP99 = refSum.p99ms
	}
	rep.Metrics["workload.open_latency_p99_ms"] = metric{openP99, "ms"}
	lags := refRes.lags
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	rep.Metrics["workload.generator_lag_p99_ms"] = metric{float64(percentile(lags, 0.99)) / 1e6, "ms"}
	rep.Metrics["workload.generator_lag_max_ms"] = metric{float64(percentile(lags, 1)) / 1e6, "ms"}
	rep.Metrics["workload.generator_skipped"] = metric{float64(refRes.skipped + res.skipped), "count"}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, nil, err
	}
	if err := tr.write(filepath.Join(out, "trace-"+sp.name+".json"), sp.name); err != nil {
		return nil, nil, err
	}
	prov := newProvenance(c, plan, true)
	prov.Samples["traced_roots_in_window"] = st.roots
	prov.Samples["node.root_pre_body_us"] = len(st.rootPre)
	prov.Samples["node.invoke_pre_us"] = len(st.invokePre)
	prov.Samples["latency_p99_ms.beyond"] = refSum.p99beyond
	prov.Samples["completed_with_warmup"] = s.completed
	prov.Samples["untraced_attempted"] = refSum.attempted
	return rep, prov, nil
}

// directoryKinds are the message kinds of the lock service.
var directoryKinds = map[stats.MsgKind]bool{
	stats.KindLockReq: true, stats.KindLockReply: true, stats.KindGrant: true,
	stats.KindRelease: true, stats.KindReleaseReply: true, stats.KindAbort: true,
	stats.KindCommitSeq: true, stats.KindCommitSeqReply: true,
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMetrics are the per-layer metrics read off the benchmark's spans.
func spanMetrics(st *spanStats) map[string]metric {
	p50us := func(v []int64) float64 { return float64(median(v)) / 1e3 }
	meanUs := func(sum, n int64) float64 { return ratio(float64(sum)/1e3, float64(n)) }
	return map[string]metric{
		"node.root_pre_body_us":  {p50us(st.rootPre), "us"},
		"node.root_post_body_us": {p50us(st.rootPost), "us"},
		"node.invoke_pre_us":     {p50us(st.invokePre), "us"},
		"node.invoke_post_us":    {p50us(st.invokePost), "us"},
		"node.ctx_read_us":       {meanUs(st.readSum, st.reads), "us"},
		"node.ctx_write_us":      {meanUs(st.writeSum, st.writes), "us"},
		"node.body_self_us":      {meanUs(st.bodySelfSum, st.bodies), "us"},
	}
}

// layerMetrics derives per-layer metrics from the traced run's recorder:
// messages from index msgs0 on and counters since ctr0, per committed root.
func layerMetrics(rec *stats.Recorder, msgs0 int, ctr0 stats.Counters, commits float64) map[string]metric {
	var msgs, dirMsgs, lockReqs, grants, ctlBytes, dataBytes float64
	for _, m := range rec.Trace()[msgs0:] {
		msgs++
		ctlBytes += float64(m.Bytes - m.Payload)
		dataBytes += float64(m.Payload)
		if directoryKinds[m.Kind] {
			dirMsgs++
		}
		switch m.Kind {
		case stats.KindLockReq:
			lockReqs++
		case stats.KindGrant:
			grants++
		}
	}
	ctr := rec.Counters()
	xf := rec.TransferStages(stats.TransferFetch)
	us := func(d time.Duration) float64 { return ratio(float64(d)/1e3, float64(xf.Transfers)) }
	perCommit := func(n int64) metric { return metric{float64(n) / commits, "count"} }
	return map[string]metric{
		"node.retries_per_commit":           perCommit(ctr.Retries - ctr0.Retries),
		"node.aborts_per_commit":            perCommit(ctr.Aborts - ctr0.Aborts),
		"wire.msgs_per_commit":              {msgs / commits, "count"},
		"wire.ctl_bytes_per_commit":         {ctlBytes / commits, "B"},
		"wire.data_bytes_per_commit":        {dataBytes / commits, "B"},
		"directory.msgs_per_commit":         {dirMsgs / commits, "count"},
		"gdo.deferred_grant_share":          {ratio(grants, lockReqs), "share"},
		"gdo.global_lock_ops_per_commit":    perCommit(ctr.GlobalLockOps - ctr0.GlobalLockOps),
		"o2pl.local_lock_ops_per_commit":    perCommit(ctr.LocalLockOps - ctr0.LocalLockOps),
		"xfer.transfers_per_commit":         perCommit(int64(xf.Transfers)),
		"xfer.batches_per_transfer":         {ratio(float64(xf.Batches), float64(xf.Transfers)), "count"},
		"xfer.pages_per_commit":             perCommit(int64(xf.Pages)),
		"xfer.plan_us":                      {us(xf.Plan), "us"},
		"xfer.gather_us":                    {us(xf.Gather), "us"},
		"xfer.apply_us":                     {us(xf.Apply), "us"},
		"xfer.delta_page_share":             {ratio(float64(xf.DeltaPages), float64(xf.Pages)), "share"},
		"pstore.delta_fallbacks_per_commit": perCommit(ctr.DeltaFallbacks - ctr0.DeltaFallbacks),
		"xfer.demand_fetches_per_commit":    perCommit(ctr.DemandFetches - ctr0.DemandFetches),
	}
}
