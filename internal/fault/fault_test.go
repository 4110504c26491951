package fault

import (
	"sync"
	"testing"
	"time"

	"lotec/internal/ids"
	"lotec/internal/stats"
	"lotec/internal/wire"
)

// judgeStream records the decision sequence for a fixed message schedule.
func judgeStream(in *Injector, n int) []Decision {
	out := make([]Decision, 0, n)
	for i := 0; i < n; i++ {
		now := time.Duration(i) * 100 * time.Microsecond
		from := ids.NodeID(1 + i%3)
		to := ids.NodeID(1 + (i+1)%3)
		out = append(out, in.Judge(now, from, to, &wire.AcquireReq{Obj: ids.ObjectID(i)}))
	}
	return out
}

func TestJudgeDeterministicAcrossInjectors(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{
		{Op: OpDrop, Prob: 0.3, Kinds: RetriableKinds},
		{Op: OpDelay, Prob: 0.4, Delay: time.Millisecond},
		{Op: OpDuplicate, Prob: 0.2, Kinds: RetriableKinds},
	}}
	a := judgeStream(NewInjector(plan), 500)
	b := judgeStream(NewInjector(plan), 500)
	var drops, delays, dups int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across identical injectors: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Drop {
			drops++
		}
		if a[i].Delay > 0 {
			delays++
		}
		dups += a[i].Duplicates
	}
	if drops == 0 || delays == 0 || dups == 0 {
		t.Fatalf("plan injected nothing (drops=%d delays=%d dups=%d); determinism test is vacuous", drops, delays, dups)
	}

	plan.Seed = 43
	c := judgeStream(NewInjector(plan), 500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("changing the seed changed nothing; draws are not seed-driven")
	}
}

func TestJudgeRuleScoping(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{{
		Op: OpDrop, Prob: 1,
		Kinds: RetriableKinds,
		From:  1, To: 2,
		After: time.Millisecond, Before: 2 * time.Millisecond,
	}}})
	ms := time.Millisecond
	cases := []struct {
		name string
		now  time.Duration
		from ids.NodeID
		to   ids.NodeID
		m    wire.Msg
		drop bool
	}{
		{"in scope", ms, 1, 2, &wire.AcquireReq{}, true},
		{"before window", ms / 2, 1, 2, &wire.AcquireReq{}, false},
		{"after window", 2 * ms, 1, 2, &wire.AcquireReq{}, false},
		{"wrong direction", ms, 2, 1, &wire.AcquireReq{}, false},
		{"wrong sender", ms, 3, 2, &wire.AcquireReq{}, false},
		{"non-retriable kind", ms, 1, 2, &wire.Grant{}, false},
	}
	for _, c := range cases {
		if got := in.Judge(c.now, c.from, c.to, c.m).Drop; got != c.drop {
			t.Errorf("%s: drop=%v, want %v", c.name, got, c.drop)
		}
	}
}

func TestJudgeMaxHits(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{
		{Op: OpDrop, Prob: 1, Kinds: RetriableKinds, MaxHits: 3},
	}})
	drops := 0
	for i := 0; i < 10; i++ {
		if in.Judge(0, 1, 2, &wire.AcquireReq{}).Drop {
			drops++
		}
	}
	if drops != 3 {
		t.Fatalf("rule with MaxHits=3 fired %d times", drops)
	}
}

func TestJudgeCrashWindows(t *testing.T) {
	ms := time.Millisecond
	// Freeze-restart: traffic touching the node inside [At, Until) is
	// held back exactly until the restart instant.
	in := NewInjector(Plan{Seed: 1, Crashes: []Crash{{Node: 2, At: ms, Until: 5 * ms}}})
	if d := in.Judge(2*ms, 1, 2, &wire.Grant{}); d.Drop || d.Delay != 3*ms {
		t.Errorf("frozen inbound: %+v, want delay 3ms", d)
	}
	if d := in.Judge(4*ms, 2, 1, &wire.Grant{}); d.Drop || d.Delay != ms {
		t.Errorf("frozen outbound: %+v, want delay 1ms", d)
	}
	for _, now := range []time.Duration{0, 5 * ms, 9 * ms} {
		if d := in.Judge(now, 1, 2, &wire.Grant{}); d.Drop || d.Delay != 0 {
			t.Errorf("outside window at %v: %+v, want zero decision", now, d)
		}
	}
	if d := in.Judge(2*ms, 1, 3, &wire.Grant{}); d.Drop || d.Delay != 0 {
		t.Errorf("uninvolved pair: %+v, want zero decision", d)
	}

	// Permanent crash (Until 0): the node is gone, everything drops.
	dead := NewInjector(Plan{Seed: 1, Crashes: []Crash{{Node: 3, At: ms}}})
	if !dead.Judge(ms, 1, 3, &wire.AcquireReq{}).Drop {
		t.Error("permanently crashed node should drop inbound traffic")
	}
	if dead.Judge(ms/2, 1, 3, &wire.AcquireReq{}).Drop {
		t.Error("traffic before the crash instant must pass")
	}
}

func TestJudgePartitionDropsOnlyRetriable(t *testing.T) {
	ms := time.Millisecond
	in := NewInjector(Plan{Seed: 1, Partitions: []Partition{{From: 1, To: 2, After: ms, Before: 5 * ms}}})
	if !in.Judge(2*ms, 1, 2, &wire.AcquireReq{}).Drop {
		t.Error("retriable traffic across the cut should drop")
	}
	if in.Judge(2*ms, 1, 2, &wire.Grant{}).Drop {
		t.Error("grants are exempt from partitions (no recovery path for losing them)")
	}
	if in.Judge(2*ms, 2, 1, &wire.AcquireReq{}).Drop {
		t.Error("a one-way cut must not affect the reverse direction")
	}
	if in.Judge(6*ms, 1, 2, &wire.AcquireReq{}).Drop {
		t.Error("traffic after the partition heals must pass")
	}
}

func TestNilAndZeroInjector(t *testing.T) {
	var nilIn *Injector
	if d := nilIn.Judge(0, 1, 2, &wire.AcquireReq{}); d != (Decision{}) {
		t.Errorf("nil injector judged %+v", d)
	}
	if nilIn.Active() || nilIn.Seed() != 0 {
		t.Error("nil injector should be inactive with seed 0")
	}
	zero := NewInjector(Plan{Seed: 9})
	if zero.Active() {
		t.Error("empty plan should be inactive")
	}
	if d := zero.Judge(0, 1, 2, &wire.AcquireReq{}); d != (Decision{}) {
		t.Errorf("empty plan judged %+v", d)
	}
}

func TestParsePresetsAndGrammar(t *testing.T) {
	for name, spec := range Presets() {
		p, err := Parse(name, 7)
		if err != nil {
			t.Fatalf("preset %q (%q): %v", name, spec, err)
		}
		if p.Seed != 7 {
			t.Fatalf("preset %q lost the seed", name)
		}
		if name == "none" && NewInjector(*p).Active() {
			t.Error(`preset "none" must inject nothing`)
		}
	}

	p, err := Parse("drop(p=0.05,kind=data,from=1,to=2,after=10ms,before=50ms,max=3); crash(node=2,at=1ms,until=8ms); partition(from=1,to=2,after=1ms)", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 1 || len(p.Crashes) != 1 || len(p.Partitions) != 1 {
		t.Fatalf("clause counts wrong: %+v", p)
	}
	r := p.Rules[0]
	if r.Op != OpDrop || r.Prob != 0.05 || r.From != 1 || r.To != 2 ||
		r.After != 10*time.Millisecond || r.Before != 50*time.Millisecond || r.MaxHits != 3 {
		t.Errorf("rule parsed wrong: %+v", r)
	}
	if len(r.Kinds) != 1 || r.Kinds[0] != stats.KindMultiPageData {
		t.Errorf("kind=data should scope to the page-data kind, got %v", r.Kinds)
	}
	if c := p.Crashes[0]; c.Node != 2 || c.At != time.Millisecond || c.Until != 8*time.Millisecond {
		t.Errorf("crash parsed wrong: %+v", c)
	}

	for _, bad := range []string{
		"explode(p=1)",                   // unknown clause
		"drop(p=0)",                      // probability out of range
		"drop(p=1.5)",                    // probability out of range
		"drop(q=0.5)",                    // unknown parameter
		"drop(p=0.5,kind=nope)",          // unknown kind group
		"delay(p=0.5)",                   // delay without d=
		"crash(at=1ms)",                  // crash without node
		"crash(node=1,at=5ms,until=2ms)", // window ends before it starts
		"partition(after=1ms)",           // partition without endpoints
		"drop p=1",                       // malformed clause
		"drop(p)",                        // malformed parameter
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", bad)
		}
	}
}

func TestDedupReplaysAndPassesThrough(t *testing.T) {
	var calls int
	handler := func(from ids.NodeID, m wire.Msg) wire.Msg {
		calls++
		return &wire.AcquireResp{Obj: m.(*wire.AcquireReq).Obj}
	}
	wrapped := NewDedup().Wrap(handler)

	// Unstamped requests pass through every time.
	wrapped(1, &wire.AcquireReq{Obj: 5})
	wrapped(1, &wire.AcquireReq{Obj: 5})
	if calls != 2 {
		t.Fatalf("unstamped requests executed %d times, want 2", calls)
	}

	// A stamped duplicate replays the cached reply without re-executing.
	calls = 0
	first := wrapped(1, &wire.AcquireReq{ReqID: 77, Obj: 9})
	second := wrapped(1, &wire.AcquireReq{ReqID: 77, Obj: 9})
	if calls != 1 {
		t.Fatalf("stamped duplicate re-executed the handler (%d calls)", calls)
	}
	if first != second {
		t.Fatal("duplicate did not replay the original reply")
	}

	// The same request ID from a different sender is a different request.
	wrapped(2, &wire.AcquireReq{ReqID: 77, Obj: 9})
	if calls != 2 {
		t.Fatalf("per-sender keying broken (%d calls)", calls)
	}
}

// TestDedupIsBounded: the idempotency cache is a FIFO window over the last
// dedupCap stamped requests, however many a server has answered.
func TestDedupIsBounded(t *testing.T) {
	d := NewDedup()
	reply := &wire.AcquireResp{}
	wrapped := d.Wrap(func(ids.NodeID, wire.Msg) wire.Msg { return reply })
	const requests = 3 * dedupCap
	for id := uint64(1); id <= requests; id++ {
		wrapped(1, &wire.AcquireReq{ReqID: id})
	}
	if len(d.seen) != dedupCap || len(d.order) != dedupCap {
		t.Errorf("cache holds %d replies (ring %d) after %d requests, want %d",
			len(d.seen), len(d.order), requests, dedupCap)
	}
	if _, ok := d.seen[dedupKey{from: 1, req: requests}]; !ok {
		t.Error("most recent request already evicted")
	}
	if _, ok := d.seen[dedupKey{from: 1, req: requests - dedupCap}]; ok {
		t.Error("request older than the window still cached")
	}
}

func TestDedupParksConcurrentDuplicates(t *testing.T) {
	release := make(chan struct{})
	var calls int
	var mu sync.Mutex
	wrapped := NewDedup().Wrap(func(from ids.NodeID, m wire.Msg) wire.Msg {
		mu.Lock()
		calls++
		mu.Unlock()
		<-release
		return &wire.AcquireResp{Obj: 1}
	})
	replies := make(chan wire.Msg, 2)
	for i := 0; i < 2; i++ {
		go func() { replies <- wrapped(1, &wire.AcquireReq{ReqID: 5}) }()
	}
	// Give both goroutines time to reach the handler / the park point,
	// then let the first execution finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	a, b := <-replies, <-replies
	if a != b {
		t.Fatal("parked duplicate observed a different reply")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("concurrent duplicate executed the handler %d times, want 1", calls)
	}
}

func TestMix64Spread(t *testing.T) {
	// Not a statistical test — just a guard that the mixer doesn't collapse
	// nearby inputs (the failure mode that would correlate per-rule draws).
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		seen[Mix64(1, i)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("Mix64 collided on sequential inputs: %d unique of 1000", len(seen))
	}
}
