package sim

import (
	"reflect"
	"testing"

	"lotec/internal/core"
	"lotec/internal/fault"
	"lotec/internal/stats"
)

// TestZeroFaultPlanTraceEquivalence pins the pay-for-what-you-use
// guarantee: installing a fault plan that injects nothing — whether the
// "none" preset or a bare seeded Plan with no rules — must leave the run
// byte-for-byte identical to a run with no plan at all. Every message in
// the trace, every counter, every modeled duration (Gather included) must
// match: the
// fault layer may not stamp request IDs, upgrade one-way sends, arm
// timeouts, or otherwise perturb the schedule unless it has faults to
// inject.
func TestZeroFaultPlanTraceEquivalence(t *testing.T) {
	zeroPreset, err := fault.Parse("none", 99)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		plan *fault.Plan
	}{
		{"none-preset", zeroPreset},
		{"empty-plan", &fault.Plan{Seed: 7}},
	}

	for _, proto := range core.AllWithRC() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			run := func(faults *fault.Plan) (traceFingerprint, stats.TransferTotals) {
				// A contended workload with injected aborts at every level,
				// so deadlock victims, ghost grants and multi-level undo all
				// occur — the paths where an eagerly-installed fault layer
				// would most plausibly leak extra messages.
				cfg := smallWorkload(67)
				cfg.AbortProb = 0.2
				cfg.Transactions = 40
				w, err := GenerateWorkload(cfg)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				c, _, err := w.Execute(Config{Protocol: proto, Faults: faults})
				if err != nil {
					t.Fatalf("execute: %v", err)
				}
				return fingerprintCluster(c)
			}

			base, baseGather := run(nil)
			if len(base.Trace) == 0 {
				t.Fatal("baseline run produced no messages; equivalence test is vacuous")
			}
			for _, v := range variants {
				fp, gather := run(v.plan)
				if fp.Counters.MsgDrops+fp.Counters.MsgDups+fp.Counters.MsgDelays+
					fp.Counters.CallTimeouts+fp.Counters.CallRetries != 0 {
					t.Errorf("%s: zero-fault plan recorded fault activity: %+v", v.name, fp.Counters)
				}
				if len(fp.Trace) != len(base.Trace) {
					t.Fatalf("%s: trace length %d != baseline %d", v.name, len(fp.Trace), len(base.Trace))
				}
				for i := range fp.Trace {
					if !reflect.DeepEqual(fp.Trace[i], base.Trace[i]) {
						t.Fatalf("%s: trace record %d diverges from the no-plan baseline:\n got %+v\nwant %+v",
							v.name, i, fp.Trace[i], base.Trace[i])
					}
				}
				if !reflect.DeepEqual(fp, base) {
					t.Errorf("%s: fingerprint diverges from the no-plan baseline:\n got %+v\nwant %+v",
						v.name, fp, base)
				}
				if gather != baseGather {
					t.Errorf("%s: gather wall-clock %v != baseline %v", v.name, gather, baseGather)
				}
			}
		})
	}
}
