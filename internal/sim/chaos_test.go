package sim

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/fault"
	"lotec/internal/ids"
	"lotec/internal/stats"
	"lotec/internal/workload"
)

// The chaos harness sweeps seeds × fault plans × protocols and asserts the
// safety invariants under every schedule. Both the workload and the fault
// plan derive from one seed, so any failure reproduces with a single flag:
//
//	go test ./internal/sim -run TestChaos -chaos-seed=<n>
//
// The default sweep is the CI smoke matrix (10 seeds × 7 plans × 3
// protocols = 210 runs); -chaos-full widens the seed set, -short shrinks
// it to a sanity check.
var (
	chaosSeed = flag.Int64("chaos-seed", -1,
		"replay one chaos seed across every fault plan and protocol (for reproducing failures)")
	chaosFull = flag.Bool("chaos-full", false,
		"sweep the full chaos seed matrix instead of the CI smoke subset")
)

// chaosPlans are the fault presets the harness sweeps — every recoverable
// preset (all of Presets() except "none", which the zero-fault trace-
// equivalence test covers instead).
var chaosPlans = []string{"drop", "delay", "dup", "reorder", "partition", "crash", "chaos"}

// chaosWorkload shapes one run: small enough that the full matrix fits in
// a CI smoke job, contended enough (4 nodes, 8 objects, hot keys, injected
// aborts at every nesting level) that drops, duplicates, reorderings and
// crashes land on interesting schedules.
func chaosWorkload(seed int64) WorkloadConfig {
	return WorkloadConfig{
		Seed:           seed,
		Objects:        8,
		MinPages:       1,
		MaxPages:       3,
		PageSize:       512,
		Transactions:   20,
		Nodes:          4,
		AbortProb:      0.15,
		HotFraction:    0.25,
		HotWeight:      0.6,
		ArrivalSpacing: 200 * time.Microsecond,
	}
}

func chaosRepro(seed uint64) string {
	return fmt.Sprintf("repro: go test ./internal/sim -run TestChaos -chaos-seed=%d", seed)
}

// runChaosOne executes one (seed, plan, protocol) cell and checks every
// safety invariant:
//
//  1. the run terminates with no proc leaked (Execute surfaces the
//     simulator's quiescence check),
//  2. every submitted root reports a result, and each outcome matches the
//     injected-abort oracle — the fault plans are all recoverable, so
//     network faults must never surface as transaction failures,
//  3. committed state equals a fault-free serial replay in commit order
//     (no lost or duplicated committed update; shadow-page undo restored
//     pre-state on every abort),
//  4. the page map is coherent at every site, and
//  5. the directory lock tables and every engine's family table drained
//     to empty.
func runChaosOne(t *testing.T, seed uint64, planName string, proto core.Protocol) {
	t.Helper()
	runChaosCell(t, seed, planName, proto, chaosWorkload(int64(seed)))
}

// runChaosCell is runChaosOne with an explicit workload shape, so variant
// matrices (e.g. the small-write delta sweep) reuse the same oracles.
func runChaosCell(t *testing.T, seed uint64, planName string, proto core.Protocol, cfg WorkloadConfig) {
	t.Helper()
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	runChaosWorkload(t, seed, planName, proto, w)
}

// runChaosWorkload runs the chaos oracles on an already-built workload, so
// spec-compiled (skewed) workloads share the exact same invariants as the
// legacy matrix.
func runChaosWorkload(t *testing.T, seed uint64, planName string, proto core.Protocol, w *Workload) {
	t.Helper()
	plan, err := fault.Parse(planName, seed)
	if err != nil {
		t.Fatalf("preset %q: %v", planName, err)
	}
	runChaosWorkloadIn(t, seed, w, Config{Protocol: proto, Faults: plan, MaxRetries: 100})
}

// runChaosWorkloadIn is the oracle core with an explicit cluster config, so
// replicated-control-plane cells (Replicas > 0, crafted crash/partition
// plans) share the exact invariants of the legacy matrix.
func runChaosWorkloadIn(t *testing.T, seed uint64, w *Workload, clusterCfg Config) *Cluster {
	t.Helper()
	proto := clusterCfg.Protocol
	c, objs, err := w.Execute(clusterCfg)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, chaosRepro(seed))
	}

	results := c.Results()
	if len(results) != len(w.Roots) {
		t.Fatalf("%d roots submitted, %d results reported\n%s", len(w.Roots), len(results), chaosRepro(seed))
	}
	for _, r := range results {
		idx := r.Tag.(int)
		if want := w.Roots[idx].Call.FailsOut(); want != (r.Err != nil) {
			t.Errorf("root %d outcome mismatch under faults (want fail=%v, err=%v)\n%s",
				idx, want, r.Err, chaosRepro(seed))
		}
	}

	// Serial replay of the commit order on a fault-free cluster must
	// reproduce the committed state byte-for-byte.
	s, err := NewCluster(Config{Protocol: proto, Nodes: w.Cfg.Nodes, PageSize: w.Cfg.PageSize})
	if err != nil {
		t.Fatalf("replay cluster: %v", err)
	}
	sObjs, err := w.Install(s)
	if err != nil {
		t.Fatalf("replay install: %v", err)
	}
	var at time.Duration
	for _, r := range c.ResultsByCommitOrder() {
		if r.Err != nil {
			continue // aborted roots left no effects to replay
		}
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
			t.Errorf("object %d: committed state differs from fault-free serial replay\n%s",
				i, chaosRepro(seed))
		}
	}

	if err := c.VerifyPageMapCoherence(); err != nil {
		t.Errorf("page map incoherent: %v\n%s", err, chaosRepro(seed))
	}
	// With retention on a drained cluster still has its idle site holds,
	// each known to exactly the site the directory names.
	dirDump := c.DirectoryDump()
	var held, retained []string
	if clusterCfg.RetainGrants {
		dirDump, held = withoutIdleRetention(dirDump, 0)
	}
	if dirDump != "" {
		t.Errorf("directory lock tables not drained:\n%s\n%s", dirDump, chaosRepro(seed))
	}
	for n := 1; n <= w.Cfg.Nodes; n++ {
		dump := c.Engine(ids.NodeID(n)).DebugDump()
		if clusterCfg.RetainGrants {
			var here []string
			dump, here = withoutIdleRetention(dump, n)
			retained = append(retained, here...)
		}
		if dump != "" {
			t.Errorf("node %d engine state not drained:\n%s\n%s", n, dump, chaosRepro(seed))
		}
	}
	sort.Strings(held)
	sort.Strings(retained)
	if !reflect.DeepEqual(held, retained) {
		t.Errorf("directory's site holds %v, sites retain %v\n%s", held, retained, chaosRepro(seed))
	}
	return c
}

// Idle retention in the two dumps: a directory entry whose only holder is a
// site hold, and an engine's retained grant no family is using. A site may
// also be left with the mark of a recall that came after the grant it was
// for had gone (a delayed message does that); it holds no grant.
var (
	idleSiteHold = regexp.MustCompile(`^(O\d+) state=\S+ sitehold\{site=node\((\d+)\) mode=(\w)\}$`)
	idleRetained = regexp.MustCompile(`^node node\((\d+)\) retained\{(O\d+) mode=(\w) user=tx\(-\) releasing=false recalled=false adopting=false\}$`)
	lateRecall   = regexp.MustCompile(`^node node\(\d+\) retained\{O\d+ mode=mode\(0\) user=tx\(-\) releasing=false recalled=true adopting=false\}$`)
)

// withoutIdleRetention strips the lines of idle retention (and the shard
// headers left with nothing under them) from a directory dump (node 0) or
// an engine's, and returns them as "object@site/mode" keys.
func withoutIdleRetention(dump string, node int) (rest string, keys []string) {
	var kept []string
	for _, line := range strings.Split(strings.TrimRight(dump, "\n"), "\n") {
		if m := idleSiteHold.FindStringSubmatch(line); m != nil && node == 0 {
			keys = append(keys, fmt.Sprintf("%s@%s/%s", m[1], m[2], m[3]))
		} else if m := idleRetained.FindStringSubmatch(line); m != nil && m[1] == fmt.Sprint(node) {
			keys = append(keys, fmt.Sprintf("%s@%s/%s", m[2], m[1], m[3]))
		} else if line != "" && !lateRecall.MatchString(line) {
			kept = append(kept, line)
		}
	}
	for i := 0; i < len(kept); i++ {
		last := i == len(kept)-1
		if strings.HasPrefix(kept[i], "shard ") && (last || strings.HasPrefix(kept[i+1], "shard ")) {
			kept = append(kept[:i], kept[i+1:]...)
			i--
		}
	}
	if len(kept) == 0 {
		return "", keys
	}
	return strings.Join(kept, "\n") + "\n", keys
}

// retainWorkload is chaosWorkload shaped so that retention has something to
// retain: twice the roots, three in four of them run at the owner of their
// object (runs of grants to one site, so the directory keeps), the fourth
// wherever the generator put it (so it recalls). Children still go
// anywhere, which is what makes a family running on a retained grant wait
// elsewhere — the adopt path.
func retainWorkload(t *testing.T, seed int64) *Workload {
	t.Helper()
	cfg := chaosWorkload(seed)
	cfg.Transactions = 40
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for i := range w.Roots {
		if i%4 != 3 {
			w.Roots[i].Node = w.Objects[w.Roots[i].Call.ObjIndex].Owner
		}
	}
	return w
}

func TestChaos(t *testing.T) {
	var seeds []uint64
	switch {
	case *chaosSeed >= 0:
		seeds = []uint64{uint64(*chaosSeed)}
	case *chaosFull:
		for s := uint64(1); s <= 40; s++ {
			seeds = append(seeds, s)
		}
	case testing.Short():
		seeds = []uint64{1, 2}
	default:
		for s := uint64(1); s <= 10; s++ {
			seeds = append(seeds, s)
		}
	}

	runs := 0
	var recalls, retained int
	for _, seed := range seeds {
		seed := seed
		for _, planName := range chaosPlans {
			planName := planName
			for _, proto := range core.All() {
				proto := proto
				runs++
				t.Run(fmt.Sprintf("seed=%d/%s/%s", seed, planName, proto.Name()), func(t *testing.T) {
					runChaosOne(t, seed, planName, proto)
				})
				// The same cell with site-retained grants on.
				t.Run(fmt.Sprintf("seed=%d/%s/%s/retain", seed, planName, proto.Name()), func(t *testing.T) {
					plan, err := fault.Parse(planName, seed)
					if err != nil {
						t.Fatalf("preset %q: %v", planName, err)
					}
					c := runChaosWorkloadIn(t, seed, retainWorkload(t, int64(seed)),
						Config{Protocol: proto, Faults: plan, MaxRetries: 100, RetainGrants: true})
					r, k := retentionSeen(c)
					recalls, retained = recalls+r, retained+k
				})
			}
		}
	}
	if recalls == 0 || retained == 0 {
		t.Errorf("retain legs saw %d recalls and ended with %d retained grants: they never exercised retention", recalls, retained)
	}
	// The smoke matrix is the acceptance bar: the default sweep must stay
	// at or above 200 runs. (Replay and -short modes are exempt — they
	// exist to shrink the matrix on purpose.)
	if *chaosSeed < 0 && !testing.Short() && runs < 200 {
		t.Fatalf("chaos smoke matrix shrank to %d runs; keep it >= 200", runs)
	}
}

// retentionSeen counts the recalls a finished cluster's trace holds and the
// grants its sites still retain.
func retentionSeen(c *Cluster) (recalls, retained int) {
	for _, m := range c.Recorder().Trace() {
		if m.Kind == stats.KindRecall {
			recalls++
		}
	}
	for n := 1; n <= c.Nodes(); n++ {
		_, keys := withoutIdleRetention(c.Engine(ids.NodeID(n)).DebugDump(), n)
		retained += len(keys)
	}
	return recalls, retained
}

// chaosZipfSpec is the skewed chaos cell: a Zipf-rate, Zipf-object client
// class with injected aborts, sized like chaosWorkload (4 nodes, 8 hot
// objects, ~20 roots) so a plans × protocols sweep stays CI-cheap.
func chaosZipfSpec(seed int64) *workload.Spec {
	return &workload.Spec{
		Name:      "chaos-zipf",
		Seed:      seed,
		Nodes:     4,
		PageSize:  512,
		Objects:   workload.ObjectPop{Count: 8, MinPages: 1, MaxPages: 3},
		HorizonMs: 4,
		Classes: []workload.ClientClass{{
			Name:       "skewed",
			Population: 200,
			AbortProb:  0.15,
			Rate:       workload.RateDist{Dist: "zipf", MeanHz: 25, S: 1.1},
			Arrivals:   workload.ArrivalSpec{Process: "poisson", Envelope: "constant"},
			ObjectDist: workload.ObjectDist{Dist: "zipf", S: 1.3},
		}},
	}
}

// TestChaosZipf runs the PR 4 chaos invariants (no proc leak, result/abort
// oracle, fault-free serial-replay byte equality, page-map coherence,
// directory and engine drain) on Zipf-skewed spec-compiled traffic — the
// uniform matrix never concentrates load on a popularity head, and skew is
// exactly where grant queues and ownership churn pile up.
func TestChaosZipf(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = []uint64{1}
	}
	for _, seed := range seeds {
		seed := seed
		for _, planName := range chaosPlans {
			planName := planName
			for _, proto := range core.All() {
				proto := proto
				t.Run(fmt.Sprintf("seed=%d/%s/%s", seed, planName, proto.Name()), func(t *testing.T) {
					w, err := workload.Compile(chaosZipfSpec(int64(seed)))
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					if len(w.Roots) < 10 {
						t.Fatalf("zipf chaos spec compiled to only %d roots; cell is vacuous", len(w.Roots))
					}
					runChaosWorkload(t, seed, planName, proto, WrapWorkload(w))
				})
			}
		}
	}
}

// TestChaosDeterministicReplay pins the byte-for-byte replay guarantee:
// the same (seed, plan, protocol) cell run twice produces identical
// message traces, counters, and outcomes — including the fault decisions
// themselves. Without this, -chaos-seed would not reproduce failures.
func TestChaosDeterministicReplay(t *testing.T) {
	cells := []struct {
		seed  uint64
		plan  string
		proto core.Protocol
	}{
		{3, "drop", core.COTEC},
		{5, "chaos", core.LOTEC},
		{7, "crash", core.OTEC},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(fmt.Sprintf("seed=%d/%s/%s", cell.seed, cell.plan, cell.proto.Name()), func(t *testing.T) {
			run := func() (traceFingerprint, error) {
				plan, err := fault.Parse(cell.plan, cell.seed)
				if err != nil {
					return traceFingerprint{}, err
				}
				w, err := GenerateWorkload(chaosWorkload(int64(cell.seed)))
				if err != nil {
					return traceFingerprint{}, err
				}
				c, _, err := w.Execute(Config{Protocol: cell.proto, Faults: plan, MaxRetries: 100})
				if err != nil {
					return traceFingerprint{}, err
				}
				fp, gather := fingerprintCluster(c)
				fp.Fetch.Gather = gather.Gather // determinism covers wall-clock too
				return fp, nil
			}
			a, err := run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Trace) != len(b.Trace) {
				t.Fatalf("trace length diverged across identical runs: %d vs %d", len(a.Trace), len(b.Trace))
			}
			for i := range a.Trace {
				if !reflect.DeepEqual(a.Trace[i], b.Trace[i]) {
					t.Fatalf("trace record %d diverged across identical runs:\n first %+v\nsecond %+v",
						i, a.Trace[i], b.Trace[i])
				}
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("fingerprints diverged across identical runs:\n first %+v\nsecond %+v", a, b)
			}
			if a.Counters.MsgDrops+a.Counters.MsgDups+a.Counters.MsgDelays == 0 {
				t.Fatal("plan injected nothing; determinism test is vacuous")
			}
		})
	}
}
