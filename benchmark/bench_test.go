package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.91, 100}, {0.1, 10}, {0.01, 10}, {1, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := quantileF([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantileF([]float64{50, 10, 30, 20, 40}, 0.25); got != 20 {
		t.Errorf("lower quartile of 10..50 = %v, want 20", got)
	}
}

func TestSelfTimes(t *testing.T) {
	sum := func(v []int64) (s int64) {
		for _, x := range v {
			s += x
		}
		return s
	}
	// root [0,100) > body [10,90) > read [20,30), write [30,50), invoke
	// [50,80) > body [55,75): nested, nothing overlaps.
	nested := []span{
		{spanRoot, -1, 0, 100}, {spanBody, 0, 10, 90}, {spanRead, 1, 20, 30},
		{spanWrite, 1, 30, 50}, {spanInvoke, 1, 50, 80}, {spanBody, 4, 55, 75},
	}
	self := selfTimes(nested)
	want := []int64{20, 20, 10, 20, 10, 20}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("nested: self[%d] = %d, want %d", i, self[i], want[i])
		}
	}
	if sum(self) != 100 {
		t.Errorf("nested: self times sum to %d, want the root span's 100", sum(self))
	}

	// Children that cover their parent exactly leave it no self time.
	covered := selfTimes([]span{{spanRoot, -1, 0, 100}, {spanBody, 0, 0, 60}, {spanBody, 0, 60, 100}})
	if covered[0] != 0 || sum(covered) != 100 {
		t.Errorf("covered: self = %v", covered)
	}

	// Overlapping children count the shared interval once, and a child is
	// clipped to its parent.
	overlap := selfTimes([]span{{spanRoot, -1, 0, 100}, {spanInvoke, 0, 10, 50}, {spanInvoke, 0, 30, 70}, {spanInvoke, 0, 90, 120}})
	if overlap[0] != 100-60-10 {
		t.Errorf("overlap: root self = %d, want 30", overlap[0])
	}
}

func TestScheduleDeterminism(t *testing.T) {
	for _, sp := range specs {
		a, err := generate(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(sp, 7)
		c, _ := generate(sp, 8)
		if a.hash != b.hash {
			t.Errorf("%s: same seed gave schedules %s and %s", sp.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule %s", sp.name, a.hash)
		}
		if len(a.roots) != poolSize {
			t.Errorf("%s: %d roots, want %d", sp.name, len(a.roots), poolSize)
		}
	}
}

// fixedGaps is an open-loop schedule of n roots gap apart.
func fixedGaps(n int, gap time.Duration) []root {
	roots := make([]root, n)
	for i := range roots {
		roots[i] = root{node: 1, obj: 1, gap: gap}
	}
	return roots
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// The generator oversleeps by 30 ms before the root due at 50 ms. The
	// root itself returns at once, but it was due 30 ms before it was sent,
	// and that wait is its latency.
	const late = 30 * time.Millisecond
	plan := runPlan{window: 100 * time.Millisecond, slices: 1, grace: time.Second, inflightCap: 16}
	calls := 0
	plan.sleep = func(d time.Duration) {
		if calls++; calls == 5 {
			d += late
		}
		time.Sleep(d)
	}
	res := drive(spec{open: true}, fixedGaps(100, 10*time.Millisecond), func(uint64, *root) error { return nil }, plan)
	var worst sample
	for _, sm := range res.samples {
		if sm.lat > worst.lat {
			worst = sm
		}
	}
	if worst.start != int64(50*time.Millisecond) || worst.lat < int64(late) {
		t.Errorf("slowest root was due at %v with latency %v; want the one due at 50ms with at least %v",
			time.Duration(worst.start), time.Duration(worst.lat), late)
	}
	sort.Slice(res.lags, func(i, j int) bool { return res.lags[i] < res.lags[j] })
	if got := percentile(res.lags, 1); got < int64(late) {
		t.Errorf("largest generator lag %v, want at least %v", time.Duration(got), late)
	}
}

func TestGeneratorSkipsArrivalsItIsTooLateFor(t *testing.T) {
	// The generator oversleeps by 92 ms before the root due at 50 ms, as it
	// does when the host stops the process. The arrivals due at 50..90 ms are
	// more than maxGeneratorLag late and are skipped, not sent as one burst;
	// the one due at 100 ms is 42 ms late and is sent.
	plan := runPlan{window: 200 * time.Millisecond, slices: 1, grace: time.Second, inflightCap: 16}
	calls := 0
	plan.sleep = func(d time.Duration) {
		if calls++; calls == 5 {
			d += 92 * time.Millisecond
		}
		time.Sleep(d)
	}
	res := drive(spec{open: true}, fixedGaps(100, 10*time.Millisecond), func(uint64, *root) error { return nil }, plan)
	if res.skipped != 5 {
		t.Errorf("skipped %d arrivals, want the 5 due during the stall", res.skipped)
	}
	if s := summarize(res); s.attempted != 19-5 || s.failed != 0 {
		t.Errorf("attempted %d with %d failed; want the 14 sent and none failed", s.attempted, s.failed)
	}
}

func TestInflightCapRefusesAndCounts(t *testing.T) {
	// 1000 roots/s against a body that takes 50 ms and a cap of 4: most
	// arrivals are refused, and every refusal is a failed root that misses
	// the latency limit.
	plan := runPlan{window: 200 * time.Millisecond, slices: 2, grace: time.Second, inflightCap: 4}
	slow := func(uint64, *root) error { time.Sleep(50 * time.Millisecond); return nil }
	res := drive(spec{open: true}, fixedGaps(100, time.Millisecond), slow, plan)
	s := summarize(res)
	if res.refused == 0 || res.unfinished != 0 {
		t.Fatalf("refused %d, unfinished %d; want refusals and nothing unfinished", res.refused, res.unfinished)
	}
	if s.failed != res.refused || s.attempted != len(res.samples) {
		t.Errorf("failed %d of %d attempted; want the %d refused of %d", s.failed, s.attempted, res.refused, len(res.samples))
	}
	if s.completed > 4*5 {
		t.Errorf("%d roots completed; the cap of 4 allows at most 20 in 250 ms", s.completed)
	}
	if s.sloShare > 0.2 {
		t.Errorf("slo_share %v; refused roots must count as missing the limit", s.sloShare)
	}
}

func TestDeadlineCountsUnfinishedRoots(t *testing.T) {
	plan := runPlan{window: 50 * time.Millisecond, slices: 1, grace: 50 * time.Millisecond, inflightCap: 4}
	release := make(chan struct{})
	defer close(release)
	stuck := func(uint64, *root) error { <-release; return nil }
	start := time.Now()
	res := drive(spec{inflight: 3}, fixedGaps(10, 0), stuck, plan)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("drive waited %v on a stalled cluster", elapsed)
	}
	if s := summarize(res); res.unfinished != 3 || s.failed != 3 || s.attempted != 3 {
		t.Errorf("unfinished %d, failed %d of %d; want all 3", res.unfinished, s.failed, s.attempted)
	}
}

func TestRunErrorFailsTheRun(t *testing.T) {
	plan := runPlan{window: 20 * time.Millisecond, slices: 1, grace: time.Second}
	boom := errors.New("boom")
	res := drive(spec{inflight: 1}, fixedGaps(10, 0), func(uint64, *root) error { return boom }, plan)
	if !errors.Is(res.runErr, boom) {
		t.Errorf("runErr = %v, want boom", res.runErr)
	}
	if s := summarize(res); s.failed != s.attempted || s.attempted == 0 {
		t.Errorf("failed %d of %d, want all", s.failed, s.attempted)
	}
}

// testSpec is a small nested workload for tests that need a real cluster.
var testSpec = spec{name: "test", inflight: 4, objects: 16, minPages: 1, maxPages: 3,
	depth: 2, fanout: 2, writeShare: 0.6, writeBytes: 64}

func TestAuditorRejectsDroppedIncrement(t *testing.T) {
	sched, err := generate(testSpec, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := startCluster(sched, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for id := range sched.roots[:200] {
		if err := c.runRoot(uint64(id), &sched.roots[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.audit.check(c); err != nil {
		t.Fatalf("audit of a correct run: %v", err)
	}
	// One more committed increment than the object's counter shows is what
	// a lost update looks like to the auditor.
	var slot int32 = -1
	for _, r := range sched.roots[:200] {
		if len(r.incs) > 0 {
			slot = r.incs[0]
			break
		}
	}
	c.audit.tally[slot].Add(1)
	err = c.audit.check(c)
	obj := int(slot)/testSpec.maxPages + 1
	if err == nil || !strings.Contains(err.Error(), "object O"+strconv.Itoa(obj)+" ") {
		t.Errorf("audit after a dropped increment on object %d: %v", obj, err)
	}
}

// TestBenchmarkJSONNamesWhatRuns runs both modes briefly on a real cluster
// and checks that BENCHMARK.json lists exactly the workloads and metrics the
// program has and prints.
func TestBenchmarkJSONNamesWhatRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(specs))
	}
	for _, w := range doc.Workloads {
		if sp, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		} else if sp.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the program give different reasons for it", w.Name)
		}
	}
	same := func(kind string, listed []entry, got map[string]metric) {
		t.Helper()
		for _, e := range listed {
			m, ok := got[e.Name]
			if !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but not printed", kind, e.Name)
			} else if m.Unit != e.Unit {
				t.Errorf("%s metric %s: unit %q printed, %q in BENCHMARK.json", kind, e.Name, m.Unit, e.Unit)
			}
			delete(got, e.Name)
		}
		for name := range got {
			t.Errorf("%s metric %s is printed but not in BENCHMARK.json", kind, name)
		}
	}

	defer func(d time.Duration) { probeBudget = d }(probeBudget)
	probeBudget = 5 * time.Millisecond
	plan := runPlan{warmup: 100 * time.Millisecond, window: 400 * time.Millisecond, slices: 2, grace: 10 * time.Second, inflightCap: inflightCap}
	sp := testSpec
	rep, _, err := runEndToEnd(sp, 1, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("end-to-end run: correct %v, %d failed of %d", rep.Correct, rep.Failed, rep.Attempted)
	}
	same("end-to-end", doc.EndToEnd, rep.Metrics)

	rep, _, err = runTraced(sp, 1, plan, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("traced run: correct %v, %d failed", rep.Correct, rep.Failed)
	}
	same("per-layer", doc.PerLayer, rep.Metrics)
}
