// Package history checks a recorded history of committed transaction
// families for conflict serializability and derives its serialization order.
//
// The order needs no sequencer. Strict nested O2PL holds every global lock
// of a family until its root commits, and the directory hands each page
// version out at grant and advances it by one per committing release that
// dirtied the page. So who wrote each version and which holders were
// granted it is the whole precedence graph:
//
//	writer of v  →  every holder granted v  →  writer of v+1
//
// Replaying the families one at a time in a topological order of it
// reproduces the committed state. A Record is plain integers, so any runtime
// can produce one.
package history

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// FirstVersion is the version every page of an object has when the object
// is registered. Nobody writes it.
const FirstVersion = 1

// Mode is how a family held an object's global lock.
type Mode uint8

// Lock modes.
const (
	Read Mode = iota + 1
	Write
)

// Stamp is one page version a committing release assigned.
type Stamp struct {
	Page    int32
	Version uint64
}

// Hold is one object a committed family held under a global lock.
type Hold struct {
	Obj  int64
	Mode Mode
	// Seen[p] is the version of page p the family was granted.
	Seen []uint64
	// Wrote is what the family's committing release stamped on the object.
	Wrote []Stamp
}

// Record is one committed family and every object it held globally when its
// root committed.
type Record struct {
	Family uint64
	Holds  []Hold
}

// version is one version of one page.
type version struct {
	obj  int64
	page int32
	v    uint64
}

func (x version) String() string { return fmt.Sprintf("O%d/p%d v%d", x.obj, x.page, x.v) }

func (x version) cmp(y version) int {
	return cmp.Or(cmp.Compare(x.obj, y.obj), cmp.Compare(x.page, y.page), cmp.Compare(x.v, y.v))
}

// Order returns the families in a topological order of the precedence graph,
// ties broken by family ID. It rejects what the protocol cannot produce: a
// write of anything but the version after the one granted, a version written
// twice (a lost update), a holder granted a version nobody wrote (which is
// also how a gap between versions shows), and a cycle. The error names the
// page and the families at fault.
func Order(records []Record) ([]uint64, error) {
	fam := func(i int) string { return fmt.Sprintf("family %d", records[i].Family) }
	writer := map[version]int{}    // record that wrote each page version
	granted := map[version][]int{} // records granted each page version
	index := map[uint64]int{}
	for i, r := range records {
		if j, dup := index[r.Family]; dup {
			return nil, fmt.Errorf("history: family %d recorded twice (records %d and %d)", r.Family, j, i)
		}
		index[r.Family] = i
		for _, h := range r.Holds {
			for p, v := range h.Seen {
				x := version{h.Obj, int32(p), v}
				granted[x] = append(granted[x], i)
			}
			for _, st := range h.Wrote {
				x := version{h.Obj, st.Page, st.Version}
				switch {
				case h.Mode != Write:
					return nil, fmt.Errorf("history: %s wrote %v under a read lock", fam(i), x)
				case st.Page < 0 || int(st.Page) >= len(h.Seen):
					return nil, fmt.Errorf("history: %s wrote %v, a page it was not granted", fam(i), x)
				case st.Version != h.Seen[st.Page]+1:
					return nil, fmt.Errorf("history: %s was granted v%d and wrote %v", fam(i), h.Seen[st.Page], x)
				}
				if j, dup := writer[x]; dup {
					return nil, fmt.Errorf("history: %v written twice, by %s and %s (lost update)", x, fam(j), fam(i))
				}
				writer[x] = i
			}
		}
	}

	seen := make([]version, 0, len(granted))
	for x := range granted {
		seen = append(seen, x)
	}
	slices.SortFunc(seen, version.cmp)
	g := graph{succ: make([][]int, len(records)), pred: make([][]int, len(records)), label: map[[2]int]version{}}
	for _, x := range seen {
		w, written := writer[x]
		if !written && x.v != FirstVersion {
			return nil, fmt.Errorf("history: %s was granted %v, a version nobody wrote", fam(granted[x][0]), x)
		}
		next := x
		next.v++
		n, overwritten := writer[next]
		for _, h := range granted[x] {
			if written {
				g.edge(w, h, x)
			}
			if overwritten {
				g.edge(h, n, next)
			}
		}
	}

	// Kahn's algorithm, the smallest family ID first among the ready ones.
	indeg := make([]int, len(records))
	for _, to := range g.succ {
		for _, j := range to {
			indeg[j]++
		}
	}
	var ready []int
	push := func(i int) {
		at := sort.Search(len(ready), func(k int) bool { return records[ready[k]].Family > records[i].Family })
		ready = slices.Insert(ready, at, i)
	}
	for i, d := range indeg {
		if d == 0 {
			push(i)
		}
	}
	order := make([]uint64, 0, len(records))
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		order = append(order, records[i].Family)
		for _, j := range g.succ[i] {
			if indeg[j]--; indeg[j] == 0 {
				push(j)
			}
		}
	}
	if len(order) < len(records) {
		return nil, g.cycle(indeg, fam)
	}
	return order, nil
}

// graph is the precedence graph, one vertex per record; each edge is
// labelled with the page version that made it.
type graph struct {
	succ, pred [][]int
	label      map[[2]int]version
}

func (g *graph) edge(from, to int, why version) {
	if _, dup := g.label[[2]int{from, to}]; dup || from == to {
		return
	}
	g.label[[2]int{from, to}] = why
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
}

// cycle describes one cycle among the vertices Kahn's algorithm left (those
// with indeg > 0). Each has a predecessor that is also left, so walking
// predecessors from one must come back to a vertex already on the walk.
func (g *graph) cycle(indeg []int, fam func(int) string) error {
	var walk []int
	v := slices.IndexFunc(indeg, func(d int) bool { return d > 0 })
	for !slices.Contains(walk, v) {
		walk = append(walk, v)
		v = g.pred[v][slices.IndexFunc(g.pred[v], func(u int) bool { return indeg[u] > 0 })]
	}
	walk = walk[slices.Index(walk, v):]
	slices.Reverse(walk) // now along the edges, and the last one leads back to the first
	var b strings.Builder
	b.WriteString("history: not serializable, cycle ")
	for k, v := range walk {
		fmt.Fprintf(&b, "%s -[%v]-> ", fam(v), g.label[[2]int{v, walk[(k+1)%len(walk)]}])
	}
	b.WriteString(fam(walk[0]))
	return fmt.Errorf("%s", b.String())
}
