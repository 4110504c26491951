package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestAvailabilitySweep runs the availability experiment at replica counts
// 1, 2 and 3. With a single host the primary kill is unrecoverable, so
// roots fail; with a backup, promotion must recover every root and the
// handoff leg must ship real state. Three replicas is the regression case
// for promotion-map distribution: the surviving primary must be able to
// advance its lagging backup past a promotion-bumped epoch (via the map
// carried on ReplicateReq) instead of livelocking on refusals.
func TestAvailabilitySweep(t *testing.T) {
	failAfter(t, 30*time.Second)
	rows, err := RunAvailability(11, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	solo := rows[0]
	if solo.Roots == 0 {
		t.Fatalf("empty workload: %+v", solo)
	}
	if solo.FailedRoots == 0 {
		t.Errorf("replicas=1: primary kill lost no roots (%+v) — fault not injected?", solo)
	}
	for _, r := range rows[1:] {
		if r.Roots == 0 {
			t.Fatalf("replicas=%d: empty workload", r.Replicas)
		}
		if r.FailedRoots != 0 {
			t.Errorf("replicas=%d: %d roots failed despite a backup (%+v)", r.Replicas, r.FailedRoots, r)
		}
		if r.Failovers == 0 || r.FailoverP99 <= 0 {
			t.Errorf("replicas=%d: no failover observed (%+v)", r.Replicas, r)
		}
		if r.Promotions == 0 {
			t.Errorf("replicas=%d: no promotion recorded (%+v)", r.Replicas, r)
		}
		if r.HandoffBytes == 0 || r.HandoffLatency <= 0 {
			t.Errorf("replicas=%d: handoff leg shipped nothing (%+v)", r.Replicas, r)
		}
	}
	if tbl := AvailabilityTable(rows); len(tbl) == 0 {
		t.Error("empty availability table")
	}
}

// failAfter panics with every goroutine's stack if the test is still
// running after d, so a self-deadlock fails in seconds with the blocked
// lock named in the dump instead of hanging to the package timeout.
func failAfter(t *testing.T, d time.Duration) {
	name := t.Name()
	timer := time.AfterFunc(d, func() {
		buf := make([]byte, 1<<20)
		panic(fmt.Sprintf("%s still running after %v\n%s", name, d, buf[:runtime.Stack(buf, true)]))
	})
	t.Cleanup(func() { timer.Stop() })
}
