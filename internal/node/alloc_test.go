//go:build !race

package node_test

import "testing"

// flatRootAllocs is what the engine allocates for one flat write root — a
// one-page read-modify-write at the owner of its object — over a transport
// that calls the co-located directory inline: the root's own state, the
// shadow page, the request and reply messages and the directory's share,
// with no frame encoded or decoded. It was 50 before txState.updated, the
// eager UndoLog map, the boxed pendingReq, the restamp map and the
// per-destination grouping of a one-destination release went, and before
// one-key sorts returned early.
const flatRootAllocs = 36

func TestAllocsFlatRoot(t *testing.T) {
	net := newThreadNet()
	eng := newThreadCluster(t, net, 1)[1]
	root := func() {
		if _, _, err := eng.Run(1, "set", nil); err != nil {
			t.Fatal(err)
		}
	}
	root()
	if n := testing.AllocsPerRun(1000, root); n > flatRootAllocs {
		t.Errorf("a flat root allocates %.2f in the engine, want ≤ %d", n, flatRootAllocs)
	}
}
