package sim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lotec/internal/core"
)

func TestFaultInjectionOutcomesMatchPrediction(t *testing.T) {
	cfg := smallWorkload(31)
	cfg.AbortProb = 0.2
	cfg.Transactions = 60
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := w.Execute(Config{Protocol: core.LOTEC})
	if err != nil {
		t.Fatal(err)
	}
	var fails, commits int
	for _, r := range c.Results() {
		idx := r.Tag.(int)
		want := w.Roots[idx].Call.FailsOut()
		if want && r.Err == nil {
			t.Errorf("root %d should have failed", idx)
		}
		if !want && r.Err != nil {
			t.Errorf("root %d failed unexpectedly: %v", idx, r.Err)
		}
		if r.Err != nil {
			if !errors.Is(r.Err, errInjectedFailure) {
				t.Errorf("root %d failed with wrong error: %v", idx, r.Err)
			}
			fails++
		} else {
			commits++
		}
	}
	if fails == 0 {
		t.Fatal("fault injection produced no failures; test is vacuous")
	}
	if commits == 0 {
		t.Fatal("every root failed; contention test is vacuous")
	}
	cnt := c.Recorder().Counters()
	if cnt.Commits != int64(commits) || cnt.Aborts < int64(fails) {
		t.Errorf("counters %+v vs observed commits=%d fails=%d", cnt, commits, fails)
	}
	if err := c.VerifyPageMapCoherence(); err != nil {
		t.Error(err)
	}
}

// TestFaultInjectionSerialEquivalence: with aborts injected at every level,
// the committed final state still equals a serial replay in the order the
// history checker reads from the page versions (failed roots leave no trace
// in either run).
func TestFaultInjectionSerialEquivalence(t *testing.T) {
	cfg := smallWorkload(37)
	cfg.AbortProb = 0.25
	cfg.Transactions = 50
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, objs, err := w.Execute(Config{Protocol: core.LOTEC})
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewCluster(Config{Protocol: core.LOTEC, Nodes: w.Cfg.Nodes, PageSize: w.Cfg.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	sObjs, err := w.Install(s)
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	for _, r := range serialOrder(t, c) { // aborted roots left no effects to replay
		call := w.Roots[r.Tag.(int)].Call
		at += 50 * time.Millisecond
		if err := s.Submit(at, r.Node, sObjs[call.ObjIndex], call.Method, encodeCall(sObjs, call)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
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
			t.Errorf("object %v: committed state differs from serial replay", o)
		}
	}
}

// TestTolerateAbsorbsGrandchildFailure: a Tolerate'd child whose own child
// fails untolerated aborts out of the child frame, yet the root survives —
// the Tolerate flag absorbs the whole failing subtree, not just failures
// originating in the child's own body. The absorbed subtree must leave no
// trace: final object state equals a run where the subtree never existed.
func TestTolerateAbsorbsGrandchildFailure(t *testing.T) {
	cfg := smallWorkload(53)
	cfg.Transactions = 1
	build := func(withChild bool) *Workload {
		w, err := GenerateWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		root := Call{ObjIndex: 0, Method: "w0", Seed: 1001}
		if withChild {
			grand := Call{ObjIndex: 2, Method: "w1", Seed: 1003, Fail: true}
			child := Call{ObjIndex: 1, Method: "w0", Seed: 1002, Tolerate: true, Children: []Call{grand}}
			root.Children = []Call{child}
		}
		w.Roots = []RootSpec{{At: time.Millisecond, Node: 1, Call: root}}
		return w
	}

	faulty := build(true)
	if !faulty.Roots[0].Call.Children[0].FailsOut() {
		t.Fatal("oracle: a child with an untolerated failing grandchild must fail out")
	}
	if faulty.Roots[0].Call.FailsOut() {
		t.Fatal("oracle: a root whose only failing child is Tolerate'd must survive")
	}

	for _, p := range core.AllWithRC() {
		c, objs, err := faulty.Execute(Config{Protocol: p})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if r := c.Results()[0]; r.Err != nil {
			t.Fatalf("%s: root should tolerate the subtree failure, got %v", p.Name(), r.Err)
		}
		control, ctlObjs, err := build(false).Execute(Config{Protocol: p})
		if err != nil {
			t.Fatalf("%s control: %v", p.Name(), err)
		}
		for i := range objs {
			got, err := c.ObjectBytes(objs[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := control.ObjectBytes(ctlObjs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: object %d differs from childless control run — absorbed subtree left a trace", p.Name(), i)
			}
		}
	}
}

// TestFaultInjectionAllProtocols: rollback correctness is protocol-
// independent.
func TestFaultInjectionAllProtocols(t *testing.T) {
	cfg := smallWorkload(41)
	cfg.AbortProb = 0.3
	cfg.Transactions = 30
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.AllWithRC() {
		c, _, err := w.Execute(Config{Protocol: p})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		for _, r := range c.Results() {
			idx := r.Tag.(int)
			if want := w.Roots[idx].Call.FailsOut(); want != (r.Err != nil) {
				t.Errorf("%s: root %d outcome mismatch (want fail=%v, err=%v)",
					p.Name(), idx, want, r.Err)
			}
		}
		if err := c.VerifyPageMapCoherence(); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}
