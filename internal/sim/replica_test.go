package sim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/fault"
	"lotec/internal/ids"
	"lotec/internal/stats"
)

// Replicated control-plane cells: the same safety oracles as the chaos
// matrix (result accounting, injected-abort oracle, fault-free serial-replay
// byte equality, page-map coherence, directory and engine drain) on
// clusters whose directory runs as replicated, relocatable shard hosts —
// plus the replication-specific invariants: epoch monotonicity, promotion
// on primary crash, and online handoff under traffic.

// replicatedConfig is the standard replicated topology for these cells:
// the chaos workload's 4 data nodes plus R control-plane hosts (nodes 5..),
// 4 directory shards.
func replicatedConfig(proto core.Protocol, replicas int, plan *fault.Plan) Config {
	return Config{
		Protocol:        proto,
		Faults:          plan,
		MaxRetries:      100,
		Replicas:        replicas,
		DirectoryShards: 4,
	}
}

// TestReplicatedBasic: deposits and cross-node reads work when every lock
// message is routed to replicated shard hosts, and a fault-free run never
// leaves epoch 1 (replication must not manufacture route churn).
func TestReplicatedBasic(t *testing.T) {
	for _, spread := range []bool{false, true} {
		t.Run(fmt.Sprintf("spread=%v", spread), func(t *testing.T) {
			c, account, _ := testbed(t, Config{
				Nodes: 3, Replicas: 2, DirectoryShards: 4, SpreadShards: spread,
			})
			acct := mustObject(t, c, account.ID, 1)
			other := mustObject(t, c, account.ID, 2)
			if err := c.Submit(0, 1, acct, "deposit", i64(42)); err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(0, 2, other, "deposit", i64(8)); err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(1e9, 2, acct, "peek", nil); err != nil {
				t.Fatal(err)
			}
			runAll(t, c)
			for _, r := range c.Results() {
				if r.Method == "peek" && dec64(r.Out) != 42 {
					t.Errorf("remote peek = %d, want 42", dec64(r.Out))
				}
			}
			if err := c.VerifyPageMapCoherence(); err != nil {
				t.Error(err)
			}
			if dump := c.DirectoryDump(); dump != "" {
				t.Errorf("not drained:\n%s", dump)
			}
			if got := c.CurrentMap().Epoch; got != 1 {
				t.Errorf("fault-free run ended at epoch %d, want 1", got)
			}
			if n := len(c.Recorder().Failovers()); n != 0 {
				t.Errorf("fault-free run recorded %d failovers, want 0", n)
			}
		})
	}
}

// TestReplicatedWorkload: the full chaos oracle set on replicated
// topologies, fault-free and under every recoverable network preset, with
// both placement layouts (all-on-one-host and spread-with-cross-host-
// deadlock-coordination).
func TestReplicatedWorkload(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = []uint64{1}
	}
	plans := append([]string{"none"}, chaosPlans...)
	for _, seed := range seeds {
		for _, planName := range plans {
			for _, spread := range []bool{false, true} {
				seed, planName, spread := seed, planName, spread
				t.Run(fmt.Sprintf("seed=%d/%s/spread=%v", seed, planName, spread), func(t *testing.T) {
					w, err := GenerateWorkload(chaosWorkload(int64(seed)))
					if err != nil {
						t.Fatalf("generate: %v", err)
					}
					plan, err := fault.Parse(planName, seed)
					if err != nil {
						t.Fatalf("preset %q: %v", planName, err)
					}
					cfg := replicatedConfig(core.LOTEC, 2, plan)
					cfg.SpreadShards = spread
					runChaosWorkloadIn(t, seed, w, cfg)
				})
				// Site holds, keeps, recalls and adopts through the op log
				// and both replicas.
				t.Run(fmt.Sprintf("seed=%d/%s/spread=%v/retain", seed, planName, spread), func(t *testing.T) {
					plan, err := fault.Parse(planName, seed)
					if err != nil {
						t.Fatalf("preset %q: %v", planName, err)
					}
					cfg := replicatedConfig(core.LOTEC, 2, plan)
					cfg.SpreadShards, cfg.RetainGrants = spread, true
					c := runChaosWorkloadIn(t, seed, retainWorkload(t, int64(seed)), cfg)
					if planName == "none" {
						// (Under a fault plan a primary may have declared its
						// backup down and gone on alone.)
						assertBackupsAgree(t, c)
					}
				})
			}
		}
	}
}

// assertBackupsAgree: every live backup's directory exports the same bytes
// as its primary's — site holds and grant streaks included, or a promotion
// would disagree with the sites about what they retain.
func assertBackupsAgree(t *testing.T, c *Cluster) {
	t.Helper()
	m := c.CurrentMap()
	for s := 0; s < m.NumShards(); s++ {
		if m.Backup[s] == ids.NoNode {
			continue
		}
		primary, _, pok := c.Host(m.Primary[s]).ReplicaDir(s)
		backup, _, bok := c.Host(m.Backup[s]).ReplicaDir(s)
		if !pok || !bok {
			t.Errorf("shard %d: a replica is missing (primary %v, backup %v)", s, pok, bok)
			continue
		}
		if !bytes.Equal(primary.Export(), backup.Export()) {
			t.Errorf("shard %d: backup's directory differs from the primary's:\n%s---\n%s",
				s, primary.DebugDump(), backup.DebugDump())
		}
	}
}

// TestReplicatedPrimaryKill is the tentpole acceptance cell: a shard
// primary host is killed permanently mid-workload. Zero lost grants or
// hung transactions — the backup is promoted, every root drains to its
// oracle outcome, and committed state still equals a fault-free serial
// replay byte-for-byte.
func TestReplicatedPrimaryKill(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = []uint64{1}
	}
	for _, seed := range seeds {
		for _, leg := range []struct{ spread, retain bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			seed, spread, retain := seed, leg.spread, leg.retain
			name := fmt.Sprintf("seed=%d/spread=%v", seed, spread)
			if retain {
				name += "/retain"
			}
			t.Run(name, func(t *testing.T) {
				w, err := GenerateWorkload(chaosWorkload(int64(seed)))
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				if retain {
					// The promoted backup must know every site hold the dead
					// primary acknowledged, and recall for its waiters.
					w = retainWorkload(t, int64(seed))
				}
				// Host 5 is the first control-plane host (4 data nodes);
				// with spread=false it is primary of every shard, spread=true
				// primary of half. Until=0 means it never comes back.
				plan, err := fault.Parse("crash(node=5,at=1ms)", seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg := replicatedConfig(core.LOTEC, 2, plan)
				cfg.SpreadShards, cfg.RetainGrants = spread, retain
				c := runChaosWorkloadIn(t, seed, w, cfg)

				if got := c.CurrentMap().Epoch; got < 2 {
					t.Errorf("epoch = %d after primary kill, want >= 2 (promotion)", got)
				}
				if n := c.Recorder().Counters().Promotions; n < 1 {
					t.Errorf("promotions = %d, want >= 1", n)
				}
				if n := len(c.Recorder().Failovers()); n < 1 {
					t.Errorf("no client-observed failover recorded")
				}
				// The dead host must no longer be named primary anywhere.
				m := c.CurrentMap()
				for s := 0; s < m.NumShards(); s++ {
					if m.Primary[s] == ids.NodeID(5) {
						t.Errorf("shard %d still names dead host 5 as primary", s)
					}
				}
			})
		}
	}
}

// TestReplicatedReshardUnderLoad moves a shard to an initially idle host
// while commutative deposit traffic runs against it. The committed state
// must be byte-identical to the same traffic with no reshard, and the
// handoff must report transferred state and land in the recorder.
func TestReplicatedReshardUnderLoad(t *testing.T) {
	run := func(reshard bool) (*Cluster, []ids.ObjectID) {
		// Three hosts, all primaries on host 4 (3 data nodes): host 6
		// starts with no replicas and receives shard 0.
		c, account, _ := testbed(t, Config{
			Nodes: 3, Replicas: 3, DirectoryShards: 2, PageSize: 128,
		})
		var objs []ids.ObjectID
		for i := 0; i < 4; i++ {
			objs = append(objs, mustObject(t, c, account.ID, ids.NodeID(i%3+1)))
		}
		// 30 deposits, every node hammering every account, spaced so the
		// handoff lands in the middle of the stream.
		at := time.Duration(0)
		for i := 0; i < 30; i++ {
			at += 200 * time.Microsecond
			if err := c.Submit(at, ids.NodeID(i%3+1), objs[i%len(objs)], "deposit", i64(1)); err != nil {
				t.Fatal(err)
			}
		}
		if reshard {
			if err := c.Reshard(3*time.Millisecond, 0, ids.NodeID(6)); err != nil {
				t.Fatal(err)
			}
		}
		runAll(t, c)
		return c, objs
	}

	base, baseObjs := run(false)
	moved, movedObjs := run(true)

	rs := moved.Reshards()
	if len(rs) != 1 || !rs[0].OK {
		t.Fatalf("reshard outcome = %+v, want one OK handoff", rs)
	}
	if rs[0].Bytes == 0 {
		t.Error("handoff shipped zero state bytes")
	}
	if got := moved.CurrentMap().Primary[0]; got != ids.NodeID(6) {
		t.Errorf("shard 0 primary = %v after handoff, want host 6", got)
	}
	if got := moved.CurrentMap().Epoch; got < 2 {
		t.Errorf("epoch = %d after handoff, want >= 2", got)
	}
	hs := moved.Recorder().Handoffs()
	if len(hs) != 1 || hs[0].Bytes == 0 {
		t.Errorf("recorder handoffs = %+v, want one sample with bytes", hs)
	}
	for i := range baseObjs {
		want, err := base.ObjectBytes(baseObjs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := moved.ObjectBytes(movedObjs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("object %d: committed state differs between reshard and no-reshard runs", i)
		}
	}
	if dump := moved.DirectoryDump(); dump != "" {
		t.Errorf("not drained after handoff:\n%s", dump)
	}
	if err := moved.VerifyPageMapCoherence(); err != nil {
		t.Error(err)
	}
}

// TestReplicatedHandoffPartition cuts the old-primary↔target link for the
// whole early run, so the first handoff attempts are cancelled through the
// witness and parked traffic is replayed; after the link heals the retry
// succeeds. No transaction may be lost at any point.
func TestReplicatedHandoffPartition(t *testing.T) {
	// Hosts 4,5,6 (3 data nodes). Old primary 4 ↔ target 6 cut both ways
	// until 80ms — longer than the transport retry budget, forcing the
	// cancel path at least once.
	plan, err := fault.Parse(
		"partition(from=4,to=6,after=500us,before=80ms);partition(from=6,to=4,after=500us,before=80ms)", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, account, _ := testbed(t, Config{
		Nodes: 3, Replicas: 3, DirectoryShards: 2, PageSize: 128,
		Faults: plan, MaxRetries: 100,
	})
	var objs []ids.ObjectID
	for i := 0; i < 4; i++ {
		objs = append(objs, mustObject(t, c, account.ID, ids.NodeID(i%3+1)))
	}
	want := make(map[ids.ObjectID]int64)
	at := time.Duration(0)
	for i := 0; i < 30; i++ {
		at += 200 * time.Microsecond
		obj := objs[i%len(objs)]
		if err := c.Submit(at, ids.NodeID(i%3+1), obj, "deposit", i64(1)); err != nil {
			t.Fatal(err)
		}
		want[obj]++
	}
	if err := c.Reshard(2*time.Millisecond, 0, ids.NodeID(6)); err != nil {
		t.Fatal(err)
	}
	runAll(t, c)

	rs := c.Reshards()
	if len(rs) != 1 {
		t.Fatalf("reshard outcomes = %+v, want exactly one", rs)
	}
	if !rs[0].OK {
		t.Errorf("reshard did not complete after the partition healed: %v", rs[0].Err)
	}
	// Every deposit must have landed exactly once despite parking, cancel
	// and replay: verify final balances.
	for i, obj := range objs {
		got, err := c.ObjectBytes(obj)
		if err != nil {
			t.Fatal(err)
		}
		if bal := dec64(got[:8]); bal != want[obj] {
			t.Errorf("account %d balance = %d, want %d", i, bal, want[obj])
		}
	}
	if dump := c.DirectoryDump(); dump != "" {
		t.Errorf("not drained:\n%s", dump)
	}
	if err := c.VerifyPageMapCoherence(); err != nil {
		t.Error(err)
	}
}

// TestCommittingReleaseRetry loses the first transmissions of the release
// that is a family's commit point — the request on its way to shard 0's
// primary, and, for later families, the reply on its way back after the
// primary has applied it. The retry must commit each family exactly once:
// the commit sequences of the run are 1..n with no gap or repeat, and the
// commit order still replays serially (the chaos oracle set).
func TestCommittingReleaseRetry(t *testing.T) {
	const drops = 6
	for _, spread := range []bool{false, true} {
		spread := spread
		t.Run(fmt.Sprintf("spread=%v", spread), func(t *testing.T) {
			w, err := GenerateWorkload(chaosWorkload(3))
			if err != nil {
				t.Fatal(err)
			}
			plan := &fault.Plan{Seed: 3, Rules: []fault.Rule{
				{Op: fault.OpDrop, Prob: 1, Kinds: []stats.MsgKind{stats.KindRelease}, MaxHits: drops},
				{Op: fault.OpDrop, Prob: 1, Kinds: []stats.MsgKind{stats.KindReleaseReply}, MaxHits: drops},
			}}
			cfg := replicatedConfig(core.LOTEC, 2, plan)
			cfg.SpreadShards = spread
			c := runChaosWorkloadIn(t, 3, w, cfg)

			cnt := c.Recorder().Counters()
			if cnt.MsgDrops != 2*drops || cnt.CallRetries < 2*drops {
				t.Errorf("dropped %d frames, %d call retries; want %d drops, each retried", cnt.MsgDrops, cnt.CallRetries, 2*drops)
			}
			var seqs []uint64
			for _, r := range c.ResultsByCommitOrder() {
				if r.Err == nil {
					seqs = append(seqs, r.CommitSeq)
				}
			}
			for i, seq := range seqs {
				if seq != uint64(i+1) {
					t.Fatalf("commit sequences %v: want 1..%d, one per committed family", seqs, len(seqs))
				}
			}
		})
	}
}

// TestEmptyCommitBatchRetry pins the smallest case of the above: a family
// that holds nothing on shard 0 fixes its place in the commit order with an
// empty committing release to shard 0's primary, and the very first
// transmission of it is lost.
func TestEmptyCommitBatchRetry(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpDrop, Prob: 1, Kinds: []stats.MsgKind{stats.KindRelease}, MaxHits: 1},
	}}
	c, account, _ := testbed(t, Config{Nodes: 2, Replicas: 2, DirectoryShards: 4, Faults: plan})
	var acct ids.ObjectID
	for c.Directory().ShardOf(acct) == 0 {
		acct = mustObject(t, c, account.ID, 1)
	}
	for i := 0; i < 2; i++ {
		if err := c.Submit(time.Duration(i)*time.Second, 1, acct, "deposit", i64(1)); err != nil {
			t.Fatal(err)
		}
	}
	runAll(t, c)

	for i, r := range c.ResultsByCommitOrder() {
		if r.CommitSeq != uint64(i+1) {
			t.Errorf("root %d has commit sequence %d, want %d", i, r.CommitSeq, i+1)
		}
	}
	if cnt := c.Recorder().Counters(); cnt.MsgDrops != 1 || cnt.CallRetries < 1 {
		t.Errorf("drops = %d, call retries = %d; want the one dropped release retried", cnt.MsgDrops, cnt.CallRetries)
	}
	empty := 0
	for _, rec := range c.Recorder().Trace() {
		if rec.Kind == stats.KindRelease && rec.Shard == 0 && len(rec.Objs) == 0 {
			empty++
		}
	}
	if empty < 2 {
		t.Errorf("%d empty committing releases reached the trace, want one per root", empty)
	}
}
