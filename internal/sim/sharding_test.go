package sim

import (
	"strings"
	"testing"
	"time"

	"lotec/internal/core"
)

// dedicatedShards is the topology a lotec-gdo -shards 4 runs, simulated:
// one dedicated directory host, primary for all four shards.
func dedicatedShards(p core.Protocol) Config {
	return Config{Protocol: p, MaxRetries: 100, Replicas: 1, DirectoryShards: 4}
}

// TestCoLocatedDirectoryHasOneShard: the co-located directory is one
// gdo.Directory, so asking it for shards is a configuration error, not a
// silent single shard.
func TestCoLocatedDirectoryHasOneShard(t *testing.T) {
	_, err := NewCluster(Config{DirectoryShards: 4})
	if err == nil || !strings.Contains(err.Error(), "Replicas") {
		t.Fatalf("DirectoryShards 4 without Replicas: %v, want an error naming Replicas", err)
	}
	for _, cfg := range []Config{{DirectoryShards: 1}, {Replicas: 1, DirectoryShards: 4}} {
		if _, err := NewCluster(cfg); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

// TestShardedByteOrdering: the paper's central figure shape — LOTEC moves no
// more bytes than OTEC, which moves no more than COTEC — must survive a
// partitioned directory.
func TestShardedByteOrdering(t *testing.T) {
	cfg := mediumHigh()
	cfg.Transactions = 40
	cfg.Objects = 12
	get := func(p core.Protocol) int64 {
		w, err := GenerateWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := w.Execute(dedicatedShards(p))
		if err != nil {
			t.Fatal(err)
		}
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
// enough to deadlock, a cluster whose directory host serves four shards
// must still drive every root to a commit — the host's union search finds
// the cycles across shards, and victims retry — and keep the page map
// coherent.
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
	c, _, err := w.Execute(dedicatedShards(core.LOTEC))
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
