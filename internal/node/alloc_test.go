//go:build !race

package node_test

import (
	"testing"

	"lotec/internal/gdo"
)

// The two budgets are what the engine allocates for one flat write root — a
// one-page read-modify-write at the owner of its object — over a transport
// that calls the co-located directory inline: the root's own state, the
// shadow page, the request and reply messages and the directory's share,
// with no frame encoded or decoded.
//
// A repeat root runs on the grant the directory left at the site: its lock
// entry is installed from the retained grant and the only exchange is the
// committing release, whose reply names the object kept again.
//
// A first root — any root over a directory with retention off — also pays
// for the acquire: request, reply and the page map the reply carries. It
// was 50 before txState.updated, the eager UndoLog map, the boxed
// pendingReq, the restamp map and the per-destination grouping of a
// one-destination release went, and before one-key sorts returned early.
const (
	repeatRootAllocs = 32
	firstRootAllocs  = 36
)

func TestAllocsFlatRoot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		retain bool
		budget float64
	}{
		{"repeat root", true, repeatRootAllocs},
		{"first root", false, firstRootAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := newThreadNet()
			dir := gdo.New(1)
			dir.SetRetainGrants(tc.retain)
			engines, _ := newThreadClusterOn(t, net, dir, 1, 1, nil)
			root := func() {
				if _, _, err := engines[1].Run(1, "set", nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i <= gdo.KeepStreak; i++ {
				root() // KeepStreak grants earn the keep
			}
			if n := testing.AllocsPerRun(1000, root); n > tc.budget {
				t.Errorf("a flat %s allocates %.2f in the engine, want ≤ %v", tc.name, n, tc.budget)
			}
		})
	}
}
