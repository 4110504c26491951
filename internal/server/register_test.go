package server

import (
	"errors"
	"testing"
	"time"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/stats"
)

// An owner registers its objects with the GDO one-way. These tests cover the
// frames that costs and the race it opens: a root at another node reaching
// the GDO before the registration.

// TestCreateObjectSendsOneFrame creates objects owned by every node of a
// three-node deployment, each at every node: the owners put one
// RegisterReq per object on the wire and the GDO answers none of them.
func TestCreateObjectSendsOneFrame(t *testing.T) {
	rec := stats.NewRecorder()
	_, _, nodes := deploy(t, deployment{nodes: 3, protocol: core.LOTEC, retain: true, rec: rec})
	const objs = 12
	for obj := ids.ObjectID(1); obj <= objs; obj++ {
		createObject(t, nodes, obj, ids.NodeID(obj%3)+1)
	}
	kinds := map[stats.MsgKind]int{}
	for _, r := range rec.Trace() {
		kinds[r.Kind]++
	}
	if len(kinds) != 1 || kinds[stats.KindRegister] != objs {
		t.Fatalf("creating %d objects sent %v, want %d %v frames and nothing else", objs, kinds, objs, stats.KindRegister)
	}
	// The owners' own roots follow their registrations on the same
	// connection, so none of them retries.
	for obj := ids.ObjectID(1); obj <= objs; obj++ {
		if _, err := nodes[obj%3].Run(obj, "deposit", i64(1)); err != nil {
			t.Fatalf("root at the owner of %v: %v", obj, err)
		}
	}
	if n := rec.Counters().Retries; n != 0 {
		t.Errorf("roots at the owners retried %d times, want 0", n)
	}
}

// TestRootBeforeRegistrationRetries runs a root at the non-owner of an
// object whose owner creates it a few milliseconds later, once the root has
// retried: the GDO answers the root's acquire Unregistered until the
// registration arrives, and the root commits.
func TestRootBeforeRegistrationRetries(t *testing.T) {
	rec := stats.NewRecorder()
	_, _, nodes := deploy(t, deployment{nodes: 2, protocol: core.LOTEC, retain: true, rec: rec})
	const obj = ids.ObjectID(5)
	if err := nodes[1].CreateObject(obj, 1, 1); err != nil {
		t.Fatal(err)
	}
	created := make(chan error, 1)
	go func() {
		for rec.Counters().Retries == 0 {
			time.Sleep(time.Millisecond)
		}
		created <- nodes[0].CreateObject(obj, 1, 1)
	}()
	out, err := nodes[1].Run(obj, "deposit", i64(7))
	if err != nil {
		t.Fatalf("root at the non-owner: %v", err)
	}
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if dec64(out) != 7 {
		t.Errorf("deposit returned %d, want 7", dec64(out))
	}
	if n := rec.Counters().Retries; n < 1 {
		t.Errorf("the root retried %d times, want at least 1", n)
	}
	got, err := nodes[0].Run(obj, "peek", nil)
	if err != nil || dec64(got) != 7 {
		t.Fatalf("peek at the owner = %d, %v; want 7", dec64(got), err)
	}
}

// TestRootOfNeverRegisteredObjectGivesUp runs a root on an object whose
// owner never registers it. The root fails with ErrRetriesExhausted wrapping
// ErrNotRegistered once its backoffs are spent, in about their sum, not in
// a call timeout.
func TestRootOfNeverRegisteredObjectGivesUp(t *testing.T) {
	rec := stats.NewRecorder()
	_, _, nodes := deploy(t, deployment{nodes: 2, protocol: core.LOTEC, retain: true, rec: rec})
	const obj = ids.ObjectID(9)
	if err := nodes[1].CreateObject(obj, 1, 1); err != nil {
		t.Fatal(err)
	}
	// node.Run's default bound and linear backoff: attempt a sleeps a·100 µs.
	const maxRetries = 50
	var backoffs time.Duration
	for a := 1; a <= maxRetries; a++ {
		backoffs += time.Duration(a) * 100 * time.Microsecond
	}
	start := time.Now()
	_, err := nodes[1].Run(obj, "deposit", i64(1))
	took := time.Since(start)
	if !errors.Is(err, node.ErrRetriesExhausted) || !errors.Is(err, node.ErrNotRegistered) {
		t.Fatalf("root on an unregistered object: %v; want ErrRetriesExhausted wrapping ErrNotRegistered", err)
	}
	if n := rec.Counters().Retries; n != maxRetries {
		t.Errorf("the root retried %d times, want %d", n, maxRetries)
	}
	// The sleeps alone take the sum; the 51 acquire round trips add little.
	// The ceiling is far under the 30 s a call waits for a reply.
	if took < backoffs || took > backoffs+5*time.Second {
		t.Errorf("the root gave up after %v, want the sum of its backoffs, %v, plus its round trips", took, backoffs)
	}
}
