package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/sim"
	"lotec/internal/stats"
)

// wireFrame is what TestSimulatorAndTCPSendTheSameTrace compares of a trace
// record.
type wireFrame struct {
	Kind          stats.MsgKind
	From, To      ids.NodeID
	Shard         int
	Objects       string
	Control, Data int
}

// frameCounts is a trace as a multiset of frames, without the kinds only the
// TCP runtime sends: object registration, client dispatch and error replies.
// The simulator creates objects and submits roots in-process.
func frameCounts(trace []stats.MsgRecord) map[wireFrame]int {
	out := map[wireFrame]int{}
	for _, r := range trace {
		switch r.Kind {
		case stats.KindRegister, stats.KindRun, stats.KindRunReply, stats.KindError:
			continue
		}
		out[wireFrame{r.Kind, r.From, r.To, r.Shard, fmt.Sprint(r.Obj, r.Objs), r.Bytes - r.Payload, r.Payload}]++
	}
	return out
}

// TestSimulatorAndTCPSendTheSameTrace runs one serial script of roots on the
// simulator's dedicated topology with retention (sim.Config Replicas 1,
// RetainGrants) and on an in-process TCP deployment. Both run the same
// directory host on node N+1, and both size frames with wire.Classify, so
// they must put the same multiset of frames on the wire: kind, ends, shard,
// objects, control and data bytes. The script has first roots at node 1,
// the repeat roots on the grant the directory leaves there, a root at node 2
// that recalls it and pulls the page, and node 1 again.
func TestSimulatorAndTCPSendTheSameTrace(t *testing.T) {
	var script []ids.NodeID
	for range gdo.KeepStreak + 2 {
		script = append(script, 1)
	}
	script = append(script, 2, 1)

	// The simulator runs one root per virtual second, so no two overlap.
	c, err := sim.NewCluster(sim.Config{Nodes: 2, PageSize: 256, Protocol: core.LOTEC, Replicas: 1, RetainGrants: true})
	if err != nil {
		t.Fatal(err)
	}
	cls := accountClass(t)
	if err := c.AddClass(cls); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterBody(cls, "deposit", deposit); err != nil {
		t.Fatal(err)
	}
	obj, err := c.CreateObject(cls.ID, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, site := range script {
		if err := c.Submit(time.Duration(i)*time.Second, site, obj, "deposit", i64(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Results() {
		if r.Err != nil {
			t.Fatalf("simulated root at node %v: %v", r.Node, r.Err)
		}
	}
	want := frameCounts(c.Recorder().Trace())
	recalls := 0
	for f, n := range want {
		if f.Kind == stats.KindRecall {
			recalls += n
		}
	}
	if recalls != 1 {
		t.Fatalf("the simulated script sent %d recalls, want 1", recalls)
	}

	// The same script over loopback. The answer to the hand-back, which no
	// root waits for, may land after the last root returns.
	rec := stats.NewRecorder()
	_, _, nodes := deploy(t, deployment{nodes: 2, protocol: core.LOTEC, retain: true, rec: rec})
	createObject(t, nodes, obj, 1)
	for _, site := range script {
		if _, err := nodes[site-1].Run(obj, "deposit", i64(1)); err != nil {
			t.Fatalf("root at node %v: %v", site, err)
		}
	}
	var got map[wireFrame]int
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if got = frameCounts(rec.Trace()); reflect.DeepEqual(got, want) || time.Now().After(deadline) {
			break
		}
	}
	for f, n := range want {
		if got[f] != n {
			t.Errorf("%+v: %d over TCP, %d in the simulator", f, got[f], n)
		}
	}
	for f, n := range got {
		if _, ok := want[f]; !ok {
			t.Errorf("%+v: %d over TCP, none in the simulator", f, n)
		}
	}
}
