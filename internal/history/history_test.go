package history

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// w and r build a hold of a one-page object: r saw v; w saw v and wrote v+1.
func r(obj int64, v uint64) Hold { return Hold{Obj: obj, Mode: Read, Seen: []uint64{v}} }
func w(obj int64, v uint64) Hold {
	return Hold{Obj: obj, Mode: Write, Seen: []uint64{v}, Wrote: []Stamp{{Page: 0, Version: v + 1}}}
}

func rec(f uint64, holds ...Hold) Record { return Record{Family: f, Holds: holds} }

func TestOrderFollowsVersions(t *testing.T) {
	// 30 writes O1 (v1→v2); 10 reads v2; 20 writes v2→v3 after the reader;
	// 40 and 5 touch nothing anyone else does and sort in by ID.
	got, err := Order([]Record{
		rec(20, w(1, 2)),
		rec(40, w(9, 1)),
		rec(10, r(1, 2)),
		rec(30, w(1, 1)),
		rec(5, r(8, 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{5, 30, 10, 20, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// TestOrderRejects plants the histories the protocol must never produce and
// checks each error names the page and the families involved.
func TestOrderRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs []Record
		want []string
	}{
		{"two-family cycle", []Record{
			// 1 read O1 before 2 wrote it; 2 read O2 before 1 wrote it.
			rec(1, r(1, 1), w(2, 1)),
			rec(2, r(2, 1), w(1, 1)),
		}, []string{"cycle", "family 1", "family 2", "O1/p0 v2", "O2/p0 v2"}},
		{"lost update", []Record{
			rec(1, w(1, 1)),
			rec(2, w(1, 1)),
		}, []string{"O1/p0 v2 written twice", "family 1", "family 2"}},
		{"version gap", []Record{
			rec(1, w(1, 1)),
			rec(2, w(1, 3)),
		}, []string{"family 2", "O1/p0 v3", "nobody wrote"}},
		{"saw a version nobody wrote", []Record{
			rec(1, w(1, 1)),
			rec(2, r(1, 3)),
		}, []string{"family 2", "O1/p0 v3", "nobody wrote"}},
		{"wrote past the version it saw", []Record{
			rec(1, w(1, 1)),
			rec(2, Hold{Obj: 1, Mode: Write, Seen: []uint64{1}, Wrote: []Stamp{{0, 3}}}),
		}, []string{"family 2", "granted v1", "wrote O1/p0 v3"}},
		{"wrote under a read lock", []Record{
			rec(3, Hold{Obj: 1, Mode: Read, Seen: []uint64{1}, Wrote: []Stamp{{0, 2}}}),
		}, []string{"family 3", "O1", "read lock"}},
		{"family recorded twice", []Record{
			rec(4, r(1, 1)),
			rec(4, r(2, 1)),
		}, []string{"family 4", "twice"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			order, err := Order(tc.recs)
			if err == nil {
				t.Fatalf("accepted, order %v", order)
			}
			for _, s := range tc.want {
				if !strings.Contains(err.Error(), s) {
					t.Errorf("error %q does not name %q", err, s)
				}
			}
		})
	}
}

// serialRun generates a random serial execution over objects of a few pages:
// each family holds a random set of objects, some for writing, and writes a
// random subset of those pages. It returns the records in execution order.
func serialRun(rng *rand.Rand, families, objects int) []Record {
	pages := make([][]uint64, objects) // current version of every page
	for o := range pages {
		pages[o] = make([]uint64, 1+rng.Intn(3))
		for p := range pages[o] {
			pages[o][p] = FirstVersion
		}
	}
	var recs []Record
	for i := 0; i < families; i++ {
		// Family IDs are not in execution order, so the order cannot come
		// from the tie-break.
		rc := Record{Family: uint64(rng.Int63n(1 << 40))}
		for o := range pages {
			if rng.Intn(3) != 0 {
				continue
			}
			h := Hold{Obj: int64(o + 1), Mode: Read, Seen: append([]uint64(nil), pages[o]...)}
			if rng.Intn(2) == 0 {
				h.Mode = Write
				for p := range pages[o] {
					if rng.Intn(2) == 0 {
						pages[o][p]++
						h.Wrote = append(h.Wrote, Stamp{Page: int32(p), Version: pages[o][p]})
					}
				}
			}
			rc.Holds = append(rc.Holds, h)
		}
		recs = append(recs, rc)
	}
	return recs
}

// TestOrderAcceptsSerialExecutions: every history of a serial execution is
// accepted, and the order returned is one the execution could have run in —
// replayed in it, every family sees exactly the versions it recorded, and
// every pair of families that conflict keeps its generated order.
func TestOrderAcceptsSerialExecutions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		recs := serialRun(rng, 1+rng.Intn(30), 1+rng.Intn(6))
		shuffled := append([]Record(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		order, err := Order(shuffled)
		if err != nil {
			t.Fatalf("trial %d: serial history rejected: %v", trial, err)
		}
		if len(order) != len(recs) {
			t.Fatalf("trial %d: order has %d families, want %d", trial, len(order), len(recs))
		}

		pos := make(map[uint64]int, len(order))
		byFam := make(map[uint64]Record, len(recs))
		for i, f := range order {
			pos[f] = i
		}
		for _, rc := range recs {
			byFam[rc.Family] = rc
		}
		versions := map[[2]int64]uint64{}
		for _, f := range order {
			for _, h := range byFam[f].Holds {
				for p, v := range h.Seen {
					k := [2]int64{h.Obj, int64(p)}
					cur, ok := versions[k]
					if !ok {
						cur = FirstVersion
					}
					if v != cur {
						t.Fatalf("trial %d: replayed in order, family %d sees O%d/p%d at v%d, recorded v%d", trial, f, h.Obj, p, cur, v)
					}
				}
				for _, st := range h.Wrote {
					versions[[2]int64{h.Obj, int64(st.Page)}] = st.Version
				}
			}
		}
		for i, a := range recs {
			for _, b := range recs[i+1:] {
				if conflict(a, b) && pos[a.Family] > pos[b.Family] {
					t.Fatalf("trial %d: family %d ran before conflicting family %d, order puts it after", trial, a.Family, b.Family)
				}
			}
		}
	}
}

// conflict reports whether two records hold a common object and at least one
// of them wrote it.
func conflict(a, b Record) bool {
	for _, ha := range a.Holds {
		for _, hb := range b.Holds {
			if ha.Obj == hb.Obj && (len(ha.Wrote) > 0 || len(hb.Wrote) > 0) {
				return true
			}
		}
	}
	return false
}
