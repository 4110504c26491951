package directory

import (
	"testing"

	"lotec/internal/gdo"
	"lotec/internal/ids"
	"lotec/internal/o2pl"
)

// TestAllocsAcquireRelease gates the directory's uncontended fast path:
// immediate-grant acquire plus release in steady state — the family-hold
// freelist, waits-for scratch, and entry scratch absorb every per-op
// bookkeeping structure after warmup. The one remaining allocation is the
// PageMap copy handed to the grantee: the grantee retains it (node-side
// entry metadata), so it must be owned memory, not a view of directory
// state that mutates under the shard lock.
func TestAllocsAcquireRelease(t *testing.T) {
	const objects = 64
	s := gdo.New(1)
	for o := ids.ObjectID(1); o <= objects; o++ {
		if err := s.Register(o, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	rels := make([]gdo.ObjectRelease, 1)
	var iter int
	n := testing.AllocsPerRun(1000, func() {
		iter++
		obj := ids.ObjectID(iter%objects + 1)
		fam := ids.FamilyID(iter)
		ref := ids.TxRef{Tx: ids.TxID(fam), Node: 1}
		if _, _, err := s.Acquire(obj, ref, fam, uint64(fam), 1, o2pl.Write); err != nil {
			t.Fatal(err)
		}
		rels[0] = gdo.ObjectRelease{Obj: obj}
		if _, _, err := s.Release(fam, 1, false, rels); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("acquire+release allocates %.2f/op, want ≤ 1 (the grantee-owned PageMap copy)", n)
	}
}
