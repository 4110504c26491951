package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/ids"
)

// deltaWorkload is mediumHigh with field-sized writes: every declared write
// touches only the first 64 bytes of its attribute, so sub-page deltas
// actually flow (whole-attribute writes always lose to the full page).
func deltaWorkload() WorkloadConfig {
	cfg := mediumHigh()
	cfg.Transactions = 80
	cfg.WriteBytes = 64
	return cfg
}

// TestDeltaTraceConcurrencyEquivalence extends the FetchConcurrency
// invariant to the delta path: with deltas flowing (small writes, delta
// counters non-zero), every fingerprint component must still be identical
// at FetchConcurrency 1 and 8 — including the delta counters themselves and
// the per-page fallback refetches a base mismatch triggers.
func TestDeltaTraceConcurrencyEquivalence(t *testing.T) {
	for _, proto := range []core.Protocol{core.LOTEC, core.RC} {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			var base traceFingerprint
			for i, conc := range []int{1, 8} {
				w, err := GenerateWorkload(deltaWorkload())
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				c, _, execErr := w.Execute(Config{Protocol: proto, FetchConcurrency: conc})
				if execErr != nil {
					t.Fatalf("execute conc=%d: %v", conc, execErr)
				}
				fp, _ := fingerprintCluster(c)
				if fp.Counters.DeltaBytes == 0 || fp.Counters.DeltaSavedBytes == 0 {
					t.Fatalf("conc=%d: no deltas flowed; invariant vacuous (%+v)", conc, fp.Counters)
				}
				if i == 0 {
					base = fp
					continue
				}
				if !reflect.DeepEqual(fp.Counters, base.Counters) {
					t.Errorf("conc=%d: counters diverge with deltas on:\n got %+v\nwant %+v",
						conc, fp.Counters, base.Counters)
				}
				if !reflect.DeepEqual(fp.Totals, base.Totals) {
					t.Errorf("conc=%d: totals diverge with deltas on: %+v != %+v",
						conc, fp.Totals, base.Totals)
				}
				if len(fp.Trace) != len(base.Trace) {
					t.Fatalf("conc=%d: trace length %d != %d", conc, len(fp.Trace), len(base.Trace))
				}
				for j := range fp.Trace {
					if !reflect.DeepEqual(fp.Trace[j], base.Trace[j]) {
						t.Fatalf("conc=%d: trace record %d diverges:\n got %+v\nwant %+v",
							conc, j, fp.Trace[j], base.Trace[j])
					}
				}
			}
		})
	}
}

// assertSerialReplayEquivalent replays the run's committed roots in the
// history checker's order on a fresh fault-free cluster and asserts
// byte-identical object state — the same oracle the chaos harness uses. Any
// delta mis-apply (stale base, double patch, lost run) shows up as a byte
// mismatch here.
func assertSerialReplayEquivalent(t *testing.T, w *Workload, c *Cluster, objs []ids.ObjectID, cfg Config) {
	t.Helper()
	s, err := NewCluster(Config{Protocol: cfg.Protocol, Nodes: w.Cfg.Nodes, PageSize: w.Cfg.PageSize})
	if err != nil {
		t.Fatalf("replay cluster: %v", err)
	}
	sObjs, err := w.Install(s)
	if err != nil {
		t.Fatalf("replay install: %v", err)
	}
	var at time.Duration
	for _, r := range serialOrder(t, c) {
		call := w.Roots[r.Tag.(int)].Call
		at += 50 * time.Millisecond
		if err := s.Submit(at, r.Node, sObjs[call.ObjIndex], call.Method, encodeCall(sObjs, call)); err != nil {
			t.Fatalf("replay submit: %v", err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	for i, o := range objs {
		got, err := c.ObjectBytes(o)
		if err != nil {
			t.Fatalf("object bytes: %v", err)
		}
		want, err := s.ObjectBytes(sObjs[i])
		if err != nil {
			t.Fatalf("replay object bytes: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("object %d: committed state differs from fault-free serial replay", i)
		}
	}
}

// TestDeltaOnOffStateEquivalence is the escape-hatch contract: -delta=off
// must change only how bytes move, never break what commits. Deltas shrink
// transfers, which shifts the modeled timing and hence which serializable
// commit order wins under contention — so the oracle is not on-state ==
// off-state but that each run's committed state equals its own fault-free
// serial replay in its serialization order. On top of that: the off run
// must report zero delta activity, the commit/failure outcomes
// (oracle-driven) must agree, and for the delta-ineligible baseline (COTEC)
// the two runs must be byte-for-byte identical — DeltaOff touches nothing
// COTEC does.
func TestDeltaOnOffStateEquivalence(t *testing.T) {
	for _, proto := range core.AllWithRC() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			run := func(off bool) traceFingerprint {
				w, err := GenerateWorkload(deltaWorkload())
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				cfg := Config{Protocol: proto, DeltaOff: off}
				c, objs, execErr := w.Execute(cfg)
				if execErr != nil {
					t.Fatalf("execute (off=%v): %v", off, execErr)
				}
				fp, _ := fingerprintCluster(c)
				assertSerialReplayEquivalent(t, w, c, objs, cfg)
				return fp
			}
			on, off := run(false), run(true)

			cnt := off.Counters
			if cnt.DeltaBytes != 0 || cnt.DeltaSavedBytes != 0 || cnt.DeltaFallbacks != 0 {
				t.Errorf("DeltaOff run reports delta activity: %+v", cnt)
			}
			if on.Commits != off.Commits || on.Failures != off.Failures {
				t.Errorf("outcomes diverge on vs off: %d/%d != %d/%d",
					on.Commits, on.Failures, off.Commits, off.Failures)
			}
			if proto == core.COTEC {
				// Version-blind baseline: the flag must be a strict no-op.
				if !reflect.DeepEqual(on, off) {
					t.Errorf("COTEC fingerprint changed under DeltaOff:\n on  %+v\n off %+v",
						on, off)
				}
			} else {
				if on.Counters.DeltaBytes == 0 {
					t.Errorf("deltas-on run moved no deltas; escape-hatch check vacuous")
				}
				if on.Totals.DataBytes >= off.Totals.DataBytes {
					t.Errorf("deltas saved nothing: on %d B >= off %d B",
						on.Totals.DataBytes, off.Totals.DataBytes)
				}
			}
		})
	}
}

// TestDeltaFullSizeWritesMatchOff pins the fallback economics: when every
// write covers its whole attribute, no encoded delta can beat a full page,
// so the deltas-on data plane must move exactly the bytes the deltas-off
// one does (every attempt falls back).
func TestDeltaFullSizeWritesMatchOff(t *testing.T) {
	cfg := mediumHigh()
	cfg.Transactions = 60
	run := func(off bool) (int64, int64) {
		w, err := GenerateWorkload(cfg)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		c, _, execErr := w.Execute(Config{Protocol: core.LOTEC, DeltaOff: off})
		if execErr != nil {
			t.Fatalf("execute (off=%v): %v", off, execErr)
		}
		return c.Recorder().Totals().DataBytes, c.Recorder().Counters().DeltaBytes
	}
	onB, onDelta := run(false)
	offB, _ := run(true)
	if onDelta != 0 {
		t.Errorf("whole-attribute writes shipped %d delta bytes; want pure fallback", onDelta)
	}
	if onB != offB {
		t.Errorf("data plane moved %d B with deltas on, %d B off; full-size writes must tie", onB, offB)
	}
}

// TestChaosDelta reruns the chaos safety matrix with field-sized writes so
// deltas flow through every fault plan. The critical cells are dup (a
// duplicated MultiPush must not apply its delta twice — the version check
// makes re-apply a no-op) and drop (the retry layer re-sends pushes; same
// idempotency) — the serial-replay byte-equality oracle inside runChaosOne
// catches any double-applied or lost delta.
func TestChaosDelta(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = []uint64{1, 2}
	}
	cfgFor := func(seed uint64) WorkloadConfig {
		cfg := chaosWorkload(int64(seed))
		cfg.WriteBytes = 16
		return cfg
	}
	for _, seed := range seeds {
		seed := seed
		for _, planName := range []string{"drop", "dup", "chaos"} {
			planName := planName
			for _, proto := range []core.Protocol{core.LOTEC, core.RC} {
				proto := proto
				t.Run(fmt.Sprintf("seed=%d/%s/%s", seed, planName, proto.Name()), func(t *testing.T) {
					runChaosCell(t, seed, planName, proto, cfgFor(seed))
				})
			}
		}
	}
}
