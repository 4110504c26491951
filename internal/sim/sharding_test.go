package sim

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/stats"
)

func shardWorkload() WorkloadConfig {
	cfg := mediumHigh()
	cfg.Transactions = 40
	cfg.Objects = 12
	return cfg
}

func executeShards(t *testing.T, p core.Protocol, shards int) *Cluster {
	t.Helper()
	w, err := GenerateWorkload(shardWorkload())
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := w.Execute(Config{Protocol: p, DirectoryShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sumShards(per map[int]stats.ObjStats) stats.ObjStats {
	var s stats.ObjStats
	for _, v := range per {
		s.Msgs += v.Msgs
		s.DataBytes += v.DataBytes
		s.ControlBytes += v.ControlBytes
	}
	return s
}

// TestShardedRunEquivalence: partitioning the directory must not change what
// the cluster computes or what it costs — same results, same serialization
// order, same message totals, same per-object attribution, byte for byte.
func TestShardedRunEquivalence(t *testing.T) {
	one := executeShards(t, core.LOTEC, 1)
	four := executeShards(t, core.LOTEC, 4)

	r1, r4 := one.Results(), four.Results()
	if len(r1) != len(r4) {
		t.Fatalf("result counts differ: %d vs %d", len(r1), len(r4))
	}
	for i := range r1 {
		a, b := r1[i], r4[i]
		if a.Node != b.Node || a.Obj != b.Obj || a.Method != b.Method ||
			!bytes.Equal(a.Out, b.Out) || (a.Err == nil) != (b.Err == nil) || a.Family != b.Family {
			t.Errorf("result %d diverges:\n 1 shard %+v\n4 shards %+v", i, a, b)
		}
	}
	o1, o4 := serialOrder(t, one), serialOrder(t, four)
	if len(o1) == 0 || len(o1) != len(o4) {
		t.Fatalf("%d and %d committed roots in the serial orders", len(o1), len(o4))
	}
	for i := range o1 {
		if o1[i].Family != o4[i].Family {
			t.Fatalf("serial order diverges at %d: family %v at 1 shard, %v at 4", i, o1[i].Family, o4[i].Family)
		}
	}

	if got, want := four.Recorder().Totals(), one.Recorder().Totals(); !reflect.DeepEqual(got, want) {
		t.Errorf("traffic totals diverge: 4 shards %+v, 1 shard %+v", got, want)
	}
	if got, want := four.Recorder().Counters(), one.Recorder().Counters(); got != want {
		t.Errorf("counters diverge: 4 shards %+v, 1 shard %+v", got, want)
	}
	if got, want := four.Recorder().PerObject(), one.Recorder().PerObject(); !reflect.DeepEqual(got, want) {
		t.Errorf("per-object stats diverge:\n4 shards %+v\n 1 shard %+v", got, want)
	}

	// The directory-addressed slice of the traffic is the same size either
	// way; sharding only changes which partition each message names.
	p1, p4 := one.Recorder().PerShard(), four.Recorder().PerShard()
	if len(p1) != 1 {
		t.Errorf("1-shard run names %d shards, want 1", len(p1))
	}
	if len(p4) != 4 {
		t.Errorf("4-shard run names %d shards, want 4 (12 objects cover every partition)", len(p4))
	}
	if got, want := sumShards(p4), sumShards(p1); !reflect.DeepEqual(got, want) {
		t.Errorf("directory traffic diverges: 4 shards %+v, 1 shard %+v", got, want)
	}
	if sumShards(p4).Msgs == 0 {
		t.Error("no directory traffic attributed to any shard")
	}
}

// TestShardedByteOrdering: the paper's central figure shape — LOTEC moves no
// more bytes than OTEC, which moves no more than COTEC — must survive
// directory partitioning.
func TestShardedByteOrdering(t *testing.T) {
	get := func(p core.Protocol) int64 {
		c := executeShards(t, p, 4)
		for i, r := range c.Results() {
			if r.Err != nil {
				t.Fatalf("%s root %d failed: %v", p.Name(), i, r.Err)
			}
		}
		return c.Recorder().Totals().DataBytes
	}
	cot, ot, lot := get(core.COTEC), get(core.OTEC), get(core.LOTEC)
	if !(lot <= ot && ot <= cot) {
		t.Errorf("byte ordering violated under 4 shards: COTEC=%d OTEC=%d LOTEC=%d", cot, ot, lot)
	}
	if lot == 0 {
		t.Error("no data moved")
	}
}

// TestShardedDisorderedWorkload: with lock-order discipline broken often
// enough to deadlock, a sharded cluster must still drive every root to a
// commit (victims retry) and keep the page map coherent.
func TestShardedDisorderedWorkload(t *testing.T) {
	cfg := WorkloadConfig{
		Seed: 99, Objects: 30, MinPages: 1, MaxPages: 4,
		Transactions: 80, Nodes: 8,
		HotFraction: 0.4, HotWeight: 0.6,
		ArrivalSpacing: 300 * time.Microsecond,
		DisorderProb:   0.3,
	}
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := w.Execute(Config{Protocol: core.LOTEC, MaxRetries: 100, DirectoryShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range c.Results() {
		if r.Err != nil {
			t.Errorf("root %d failed: %v", i, r.Err)
		}
	}
	if c.Recorder().Counters().Aborts == 0 {
		t.Error("disordered workload never deadlocked; the detector went unexercised")
	}
	if err := c.VerifyPageMapCoherence(); err != nil {
		t.Errorf("page map incoherent: %v", err)
	}
}
