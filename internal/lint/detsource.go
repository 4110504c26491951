package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// detRootPackages are the packages whose observable behavior must be a pure
// function of their inputs and seeds: the simulator and everything that
// feeds its trace. A nondeterminism source reachable from any function in
// these packages breaks LOTEC's byte-identical-runs contract even when the
// source itself lives in a helper package far away.
var detRootPackages = map[string]bool{
	"sim":      true,
	"fault":    true,
	"workload": true,
	"netmodel": true,
	"stats":    true,
	// The replicated directory (hosts, handoff, routing) replays inside the
	// simulator: its promotions and epoch adoptions are part of the trace.
	"directory": true,
	"history":   true, // the serial replay's order
}

// DetSource is the whole-program nondeterminism-taint analyzer. It marks a
// closed set of source constructs —
//
//   - time.Now / time.Since / time.Until (wall clock),
//   - package-level math/rand functions (the global, unseedable-per-run
//     RNG; constructing a seeded generator via rand.New/NewSource is fine),
//   - os.Getenv / os.LookupEnv / os.Environ / os.Hostname (ambient host
//     state),
//   - (*sync.Map).Range (unordered iteration),
//   - select statements with two or more communication clauses (scheduler
//     order),
//   - order-unsafe map iteration in packages outside mapiter's scope
//     (inside its scope mapiter already gates them),
//
// — then walks the static call graph backwards from each source. Any
// function declared in a deterministic root package (sim, fault, workload,
// netmodel, stats) that can reach a source is reported, with the shortest
// call path from the deterministic code to the source so the leak is
// actionable. A `//lotec:nondet-ok` directive on the source line blesses
// that one site for every caller.
//
// Calls through function values and interface methods are invisible to the
// static graph; determinism across those edges is the callee's
// responsibility (its own package is either in the root set or it is not).
var DetSource = &Analyzer{
	Name:       "detsource",
	Doc:        "nondeterminism sources must not be reachable from sim/fault/workload/netmodel/stats",
	RunProgram: runDetSource,
}

// sourceHit is one nondeterminism source site inside a function body.
type sourceHit struct {
	fn   *types.Func
	pos  token.Pos
	pkg  *Package
	desc string
}

// taintWitness explains why a function is tainted: it either contains a
// source directly or calls a tainted function.
type taintWitness struct {
	src  *sourceHit // non-nil: direct source
	site *callSite  // non-nil: call into tainted callee
}

func runDetSource(prog *Program) []Finding {
	g := prog.graph()
	hits := collectSources(prog, g)

	// Split sources into blessed and live. A //lotec:nondet-ok directive is
	// consumed only if its source could actually leak — i.e. the function
	// containing it is reachable from deterministic code — so blessings on
	// dead or irrelevant sources rot into audit findings.
	reachable := reachableFromDetRoots(prog, g)
	var live []*sourceHit
	for _, h := range hits {
		pos := h.pkg.Fset.Position(h.pos)
		if prog.directiveAt("nondet-ok", pos) != nil {
			if reachable[h.fn] {
				prog.MarkUsed("nondet-ok", pos)
			}
			continue
		}
		live = append(live, h)
	}

	tainted := propagateTaint(prog, g, live)

	var out []Finding
	direct := make(map[*types.Func]bool)
	for _, h := range live {
		if fi, ok := g.funcs[h.fn]; ok && detRootPackages[fi.pkg.Name] {
			out = append(out, fi.pkg.finding("detsource", h.pos,
				"%s in deterministic package %s (justify with //lotec:nondet-ok)",
				h.desc, fi.pkg.Name))
			direct[h.fn] = true
		}
	}
	for _, fi := range g.sortedFuncs() {
		if !detRootPackages[fi.pkg.Name] || direct[fi.obj] {
			continue
		}
		w, ok := tainted[fi.obj]
		if !ok || w.site == nil {
			continue
		}
		// Taint arrives through a call; report only boundary crossings —
		// a call to a tainted function in another deterministic package is
		// that function's own finding.
		if fi2, ok := g.funcs[w.site.callee]; ok && detRootPackages[fi2.pkg.Name] {
			continue
		}
		chain, src := taintChain(tainted, w)
		out = append(out, fi.pkg.finding("detsource", w.site.call.Pos(),
			"deterministic package %s reaches nondeterminism source %s via %s",
			fi.pkg.Name, src.desc, pathString(chain, src.desc)))
	}
	return out
}

// collectSources finds every nondeterminism source site in the program,
// grouped under the function containing it, in deterministic order.
func collectSources(prog *Program, g *callGraph) []*sourceHit {
	var hits []*sourceHit
	for _, fi := range g.sortedFuncs() {
		fi := fi
		p := fi.pkg
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if desc := nondetCall(p, x); desc != "" {
					hits = append(hits, &sourceHit{fn: fi.obj, pos: x.Pos(), pkg: p, desc: desc})
				}
			case *ast.SelectStmt:
				if commClauses(x) >= 2 {
					hits = append(hits, &sourceHit{fn: fi.obj, pos: x.Pos(), pkg: p,
						desc: "multi-case select (scheduler picks the ready clause)"})
				}
			case *ast.RangeStmt:
				// Inside mapiter's scope that analyzer gates map ranges with
				// its own sort-or-justify discipline; outside it an
				// order-unsafe range is a plain nondeterminism source.
				if deterministicPackages[p.Name] {
					return true
				}
				if !isMapType(p.Info.Types[x.X].Type) {
					return true
				}
				if _, bad := p.checkMapRange(fi.decl, x); bad {
					hits = append(hits, &sourceHit{fn: fi.obj, pos: x.Pos(), pkg: p,
						desc: "order-unsafe map iteration"})
				}
			}
			return true
		})
	}
	return hits
}

// nondetCall classifies a call expression as a nondeterminism source,
// returning a description or "".
func nondetCall(p *Package, call *ast.CallExpr) string {
	fn := calleeOf(p, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name() + "() (wall clock)"
		}
	case "math/rand", "math/rand/v2":
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			return "" // method on a seeded *rand.Rand: deterministic
		}
		if strings.HasPrefix(fn.Name(), "New") {
			return "" // constructing a seeded generator
		}
		return "math/rand." + fn.Name() + "() (global RNG)"
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ", "Hostname":
			return "os." + fn.Name() + "() (ambient host state)"
		}
	case "sync":
		if fn.Name() == "Range" {
			if named := recvNamed(fn); named != nil && named.Obj().Name() == "Map" {
				return "(*sync.Map).Range (unordered iteration)"
			}
		}
	}
	return ""
}

// commClauses counts the communication clauses of a select statement.
func commClauses(sel *ast.SelectStmt) int {
	n := 0
	for _, c := range sel.Body.List {
		if _, ok := c.(*ast.CommClause); ok {
			n++
		}
	}
	return n
}

// reachableFromDetRoots computes the forward closure of the call graph from
// every function declared in a deterministic root package.
func reachableFromDetRoots(prog *Program, g *callGraph) map[*types.Func]bool {
	reach := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, fi := range g.sortedFuncs() {
		if detRootPackages[fi.pkg.Name] {
			reach[fi.obj] = true
			queue = append(queue, fi.obj)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, site := range g.calls[fn] {
			if !reach[site.callee] {
				reach[site.callee] = true
				queue = append(queue, site.callee)
			}
		}
	}
	return reach
}

// propagateTaint runs a reverse BFS from the live sources: a function is
// tainted if it contains a source or calls a tainted function. The witness
// map records one shortest step toward a source per function; BFS order is
// made deterministic by sorting seeds and reverse edges by position.
func propagateTaint(prog *Program, g *callGraph, live []*sourceHit) map[*types.Func]taintWitness {
	reverse := make(map[*types.Func][]*callSite)
	for _, fi := range g.sortedFuncs() {
		for i := range g.calls[fi.obj] {
			site := &g.calls[fi.obj][i]
			reverse[site.callee] = append(reverse[site.callee], site)
		}
	}
	for _, sites := range reverse {
		sort.Slice(sites, func(i, j int) bool { return sites[i].call.Pos() < sites[j].call.Pos() })
	}

	tainted := make(map[*types.Func]taintWitness)
	var queue []*types.Func
	for _, h := range live {
		if _, ok := tainted[h.fn]; ok {
			continue
		}
		tainted[h.fn] = taintWitness{src: h}
		queue = append(queue, h.fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, site := range reverse[fn] {
			if _, ok := tainted[site.caller]; ok {
				continue
			}
			tainted[site.caller] = taintWitness{site: site}
			queue = append(queue, site.caller)
		}
	}
	return tainted
}

// taintChain reconstructs the call path from a witness to its terminal
// source: the returned chain lists the callees crossed (excluding the
// reporting function itself), and src is the source reached.
func taintChain(tainted map[*types.Func]taintWitness, w taintWitness) ([]*types.Func, *sourceHit) {
	var chain []*types.Func
	for w.site != nil {
		chain = append(chain, w.site.callee)
		w = tainted[w.site.callee]
	}
	return chain, w.src
}
