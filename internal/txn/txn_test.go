package txn

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"lotec/internal/ids"
)

func TestBeginRoot(t *testing.T) {
	m := NewManager()
	r := m.Begin(2)
	if !r.IsRoot() || r.Parent() != nil || r.Root() != r {
		t.Error("root identity wrong")
	}
	if r.Node() != 2 || r.Depth() != 0 || r.Status() != Active {
		t.Errorf("root fields wrong: %v depth=%d status=%v", r.Node(), r.Depth(), r.Status())
	}
	if r.Family() != r.ID() {
		t.Error("root family must be its own ID")
	}
	if r.Ref() != (ids.TxRef{Tx: r.ID(), Node: 2}) {
		t.Errorf("Ref = %v", r.Ref())
	}
}

func TestBeginChild(t *testing.T) {
	m := NewManager()
	r := m.Begin(1)
	c, err := m.BeginChild(r)
	if err != nil {
		t.Fatal(err)
	}
	if c.IsRoot() || c.Parent() != r || c.Root() != r || c.Family() != r.ID() {
		t.Error("child tree links wrong")
	}
	if c.Node() != r.Node() {
		t.Error("child must execute at family's node")
	}
	if c.Depth() != 1 {
		t.Errorf("depth = %d, want 1", c.Depth())
	}
	kids := r.Children()
	if len(kids) != 1 || kids[0] != c {
		t.Errorf("Children = %v", kids)
	}
}

func TestBeginChildOfFinishedParentFails(t *testing.T) {
	m := NewManager()
	r := m.Begin(1)
	if err := m.CommitRoot(r); err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginChild(r); !errors.Is(err, ErrNotActive) {
		t.Errorf("got %v, want ErrNotActive", err)
	}
}

// TestCommittedFamiliesAreCollected pins that the Manager keeps nothing per
// transaction: once the caller drops a committed family it is garbage. The
// check is on live heap rather than finalizers, which the runtime does not
// run on cyclic structures (parent and children point at each other).
func TestCommittedFamiliesAreCollected(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	family := func(m *Manager) {
		r := m.Begin(1)
		c, err := m.BeginChild(r)
		if err != nil {
			t.Fatal(err)
		}
		g, err := m.BeginChild(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range []*Txn{g, c} {
			if err := m.PreCommit(tx); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.CommitRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager()
	family(m) // warm up anything lazily allocated
	const families = 20000
	before := liveHeap()
	for i := 0; i < families; i++ {
		family(m)
	}
	after := liveHeap()
	runtime.KeepAlive(m)
	// A retained family is three Txn of ~100 B each; 4 B leaves room only
	// for the test binary's own noise.
	if grown := int64(after) - int64(before); grown > 4*families {
		t.Errorf("live heap grew %d B over %d committed families (%.1f B each); the manager must not retain them",
			grown, families, float64(grown)/families)
	}
}

func TestAncestry(t *testing.T) {
	m := NewManager()
	r := m.Begin(1)
	a, _ := m.BeginChild(r)
	b, _ := m.BeginChild(r)
	a1, _ := m.BeginChild(a)

	if !r.IsAncestorOf(a) || !r.IsAncestorOf(a1) || !a.IsAncestorOf(a1) {
		t.Error("ancestor chains wrong")
	}
	if a.IsAncestorOf(b) || b.IsAncestorOf(a1) || a1.IsAncestorOf(r) {
		t.Error("false ancestry")
	}
	if a.IsAncestorOf(a) {
		t.Error("IsAncestorOf must be proper")
	}
	if !a.SelfOrAncestorOf(a) || !r.SelfOrAncestorOf(a1) {
		t.Error("SelfOrAncestorOf wrong")
	}
	if b.SelfOrAncestorOf(a1) {
		t.Error("sibling is not ancestor")
	}
}

func TestPreCommitLifecycle(t *testing.T) {
	m := NewManager()
	r := m.Begin(1)
	c, _ := m.BeginChild(r)
	if err := m.PreCommit(c); err != nil {
		t.Fatal(err)
	}
	if c.Status() != PreCommitted {
		t.Errorf("status = %v", c.Status())
	}
	if err := m.PreCommit(c); !errors.Is(err, ErrNotActive) {
		t.Errorf("double pre-commit: %v", err)
	}
	if err := m.PreCommit(r); !errors.Is(err, ErrRootOp) {
		t.Errorf("pre-commit of root: %v", err)
	}
}

func TestPreCommitBlockedByActiveChildren(t *testing.T) {
	m := NewManager()
	r := m.Begin(1)
	c, _ := m.BeginChild(r)
	g, _ := m.BeginChild(c)
	if err := m.PreCommit(c); !errors.Is(err, ErrActiveChildren) {
		t.Errorf("got %v, want ErrActiveChildren", err)
	}
	if err := m.PreCommit(g); err != nil {
		t.Fatal(err)
	}
	if err := m.PreCommit(c); err != nil {
		t.Errorf("pre-commit after child finished: %v", err)
	}
}

func TestCommitRootPromotesPreCommittedSubtree(t *testing.T) {
	m := NewManager()
	r := m.Begin(1)
	a, _ := m.BeginChild(r)
	a1, _ := m.BeginChild(a)
	b, _ := m.BeginChild(r)

	if err := m.PreCommit(a1); err != nil {
		t.Fatal(err)
	}
	if err := m.PreCommit(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(b); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitRoot(r); err != nil {
		t.Fatal(err)
	}
	if r.Status() != Committed || a.Status() != Committed || a1.Status() != Committed {
		t.Errorf("statuses: r=%v a=%v a1=%v", r.Status(), a.Status(), a1.Status())
	}
	if b.Status() != Aborted {
		t.Errorf("aborted child promoted: %v", b.Status())
	}
}

func TestCommitRootRequiresRoot(t *testing.T) {
	m := NewManager()
	r := m.Begin(1)
	c, _ := m.BeginChild(r)
	if err := m.CommitRoot(c); !errors.Is(err, ErrNotRoot) {
		t.Errorf("got %v, want ErrNotRoot", err)
	}
}

func TestCommitRootBlockedByActiveChildren(t *testing.T) {
	m := NewManager()
	r := m.Begin(1)
	if _, err := m.BeginChild(r); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitRoot(r); !errors.Is(err, ErrActiveChildren) {
		t.Errorf("got %v, want ErrActiveChildren", err)
	}
}

func TestAbort(t *testing.T) {
	m := NewManager()
	r := m.Begin(1)
	c, _ := m.BeginChild(r)
	if err := m.Abort(c); err != nil {
		t.Fatal(err)
	}
	if c.Status() != Aborted {
		t.Errorf("status = %v", c.Status())
	}
	// Parent can now finish.
	if err := m.CommitRoot(r); err != nil {
		t.Errorf("commit after child abort: %v", err)
	}
}

func TestAbortWithActiveChildrenFails(t *testing.T) {
	m := NewManager()
	r := m.Begin(1)
	c, _ := m.BeginChild(r)
	_ = c
	if err := m.Abort(r); !errors.Is(err, ErrActiveChildren) {
		t.Errorf("got %v, want ErrActiveChildren", err)
	}
}

func TestDepthLimit(t *testing.T) {
	m := NewManager()
	cur := m.Begin(1)
	var err error
	for i := 0; i < MaxDepth; i++ {
		cur, err = m.BeginChild(cur)
		if err != nil {
			t.Fatalf("depth %d: %v", i, err)
		}
	}
	if _, err := m.BeginChild(cur); !errors.Is(err, ErrTooDeeplyNested) {
		t.Errorf("got %v, want ErrTooDeeplyNested", err)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		Active:       "active",
		PreCommitted: "pre-committed",
		Committed:    "committed",
		Aborted:      "aborted",
		Status(99):   "status(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestTxnString(t *testing.T) {
	m := NewManager()
	r := m.Begin(3)
	if got := r.String(); got == "" {
		t.Error("empty String()")
	}
}

// Property: in any randomly generated family tree, Family() of every node is
// the root's ID, depth equals the number of ancestors, and IsAncestorOf is
// consistent with the construction.
func TestFamilyTreeProperty(t *testing.T) {
	f := func(structure []uint8) bool {
		m := NewManager()
		root := m.Begin(1)
		nodes := []*Txn{root}
		for _, s := range structure {
			parent := nodes[int(s)%len(nodes)]
			if parent.Status() != Active {
				continue
			}
			c, err := m.BeginChild(parent)
			if err != nil {
				return false
			}
			nodes = append(nodes, c)
		}
		for _, n := range nodes {
			if n.Family() != root.ID() {
				return false
			}
			depth := 0
			for p := n.Parent(); p != nil; p = p.Parent() {
				if !p.IsAncestorOf(n) {
					return false
				}
				depth++
			}
			if depth != n.Depth() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
