package sim

import (
	"bytes"
	"testing"
	"time"

	"lotec/internal/core"
)

func smallWorkload(seed int64) WorkloadConfig {
	return WorkloadConfig{
		Seed:         seed,
		Objects:      10,
		MinPages:     1,
		MaxPages:     4,
		PageSize:     512,
		Transactions: 40,
		Nodes:        4,
	}
}

func TestGenerateWorkloadDeterministic(t *testing.T) {
	a, err := GenerateWorkload(smallWorkload(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWorkload(smallWorkload(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Roots) != len(b.Roots) || len(a.Objects) != len(b.Objects) {
		t.Fatal("workload shape not deterministic")
	}
	for i := range a.Roots {
		ra, rb := a.Roots[i], b.Roots[i]
		if ra.At != rb.At || ra.Node != rb.Node || ra.Call.Method != rb.Call.Method ||
			ra.Call.ObjIndex != rb.Call.ObjIndex || ra.Call.Seed != rb.Call.Seed {
			t.Fatalf("root %d differs", i)
		}
	}
	// Different seeds differ.
	c, err := GenerateWorkload(smallWorkload(8))
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Roots) == len(c.Roots)
	if same {
		diff := false
		for i := range a.Roots {
			if a.Roots[i].Call.Seed != c.Roots[i].Call.Seed {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestWorkloadRunsToCompletion(t *testing.T) {
	for _, p := range core.AllWithRC() {
		t.Run(p.Name(), func(t *testing.T) {
			w, err := GenerateWorkload(smallWorkload(11))
			if err != nil {
				t.Fatal(err)
			}
			c, _, err := w.Execute(Config{Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range c.Results() {
				if r.Err != nil {
					t.Fatalf("root %s on %v: %v", r.Method, r.Obj, r.Err)
				}
			}
			if got := len(c.Results()); got != len(w.Roots) {
				t.Errorf("%d results for %d roots", got, len(w.Roots))
			}
			if err := c.VerifyPageMapCoherence(); err != nil {
				t.Error(err)
			}
			if c.Recorder().Counters().Commits != int64(len(w.Roots)) {
				t.Errorf("commits = %d", c.Recorder().Counters().Commits)
			}
		})
	}
}

func TestWorkloadDeterministicTraceSameProtocol(t *testing.T) {
	run := func() int64 {
		w, err := GenerateWorkload(smallWorkload(3))
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := w.Execute(Config{Protocol: core.LOTEC})
		if err != nil {
			t.Fatal(err)
		}
		return c.Recorder().Totals().TotalBytes()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, same protocol, different bytes: %d vs %d", a, b)
	}
}

// Serializability (invariant 1): replay the committed roots serially in
// commit order on a fresh single-threaded cluster and compare every
// object's final bytes.
func TestWorkloadSerialEquivalence(t *testing.T) {
	// The replay itself never retains: it is the reference.
	t.Run("paper", func(t *testing.T) { serialEquivalence(t, false) })
	t.Run("retain", func(t *testing.T) { serialEquivalence(t, true) })
}

func serialEquivalence(t *testing.T, retain bool) {
	w, err := GenerateWorkload(smallWorkload(21))
	if err != nil {
		t.Fatal(err)
	}
	if retain {
		// Roots mostly at the owner of their object: grants to retain.
		for i := range w.Roots {
			if i%4 != 3 {
				w.Roots[i].Node = w.Objects[w.Roots[i].Call.ObjIndex].Owner
			}
		}
	}
	c, objs, err := w.Execute(Config{Protocol: core.LOTEC, RetainGrants: retain})
	if err != nil {
		t.Fatal(err)
	}
	if recalls, retained := retentionSeen(c); retain && (recalls == 0 || retained == 0) {
		t.Fatalf("%d recalls, %d grants retained at the end: the run never exercised retention", recalls, retained)
	}
	for _, r := range c.Results() {
		if r.Err != nil {
			t.Fatalf("concurrent run failed: %v", r.Err)
		}
	}

	// Rebuild an identical cluster and replay the commits one at a time,
	// spaced far enough apart that nothing overlaps.
	s, err := NewCluster(Config{Protocol: core.LOTEC, Nodes: w.Cfg.Nodes, PageSize: w.Cfg.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	sObjs, err := w.Install(s)
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	for _, r := range c.ResultsByCommitOrder() {
		idx, ok := r.Tag.(int)
		if !ok {
			t.Fatalf("result missing root tag: %+v", r)
		}
		call := w.Roots[idx].Call
		at += 50 * time.Millisecond
		if err := s.Submit(at, r.Node, sObjs[call.ObjIndex], call.Method, encodeCall(sObjs, call)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Results() {
		if r.Err != nil {
			t.Fatalf("serial replay failed: %v", r.Err)
		}
	}
	for i, o := range objs {
		concurrent, err := c.ObjectBytes(o)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := s.ObjectBytes(sObjs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(concurrent, serial) {
			t.Errorf("object %v: concurrent state differs from serial replay", o)
		}
	}
}

func TestWorkloadMispredictDemandFetches(t *testing.T) {
	cfg := smallWorkload(5)
	cfg.MispredictProb = 0.6
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := w.Execute(Config{Protocol: core.LOTEC})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Results() {
		if r.Err != nil {
			t.Fatalf("lenient run failed: %v", r.Err)
		}
	}
	if err := c.VerifyPageMapCoherence(); err != nil {
		t.Error(err)
	}
}

func TestWorkloadPredictionWiden(t *testing.T) {
	base := smallWorkload(9)
	widened := base
	widened.PredictionWiden = 3
	wb, err := GenerateWorkload(base)
	if err != nil {
		t.Fatal(err)
	}
	ww, err := GenerateWorkload(widened)
	if err != nil {
		t.Fatal(err)
	}
	// Widened declared sets must never be smaller.
	for i, cls := range wb.Classes {
		wide := ww.Classes[i]
		for j, m := range cls.Methods() {
			if len(wide.Methods()[j].Writes) < len(m.Writes) {
				t.Errorf("%s.%s: widened writes shrank", cls.Name, m.Name)
			}
		}
	}
}

func TestWorkloadInstallValidation(t *testing.T) {
	w, err := GenerateWorkload(smallWorkload(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{Nodes: 4, PageSize: 64}) // wrong page size
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Install(c); err == nil {
		t.Error("page-size mismatch should fail")
	}
	c2, err := NewCluster(Config{Nodes: 2, PageSize: 512}) // too few nodes
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Install(c2); err == nil {
		t.Error("node-count mismatch should fail")
	}
}
