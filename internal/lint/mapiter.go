package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// deterministicPackages are the package names whose behavior feeds the
// simulation trace: every module package the simulator and the serial
// replay import. Map-iteration order leaking out of any of them breaks
// LOTEC's byte-identical-runs contract.
var deterministicPackages = map[string]bool{
	"core":      true,
	"directory": true,
	"fault":     true,
	"gdo":       true,
	"history":   true,
	"ids":       true,
	"netmodel":  true,
	"node":      true,
	"o2pl":      true,
	"pstore":    true,
	"schema":    true,
	"sim":       true,
	"stats":     true,
	"transport": true,
	"txn":       true,
	"wire":      true,
	"workload":  true,
	"xfer":      true,
}

// MapIter flags `for range` over a map in determinism-critical packages
// unless the loop is provably order-insensitive or its accumulated results
// are sorted before use. A `//lotec:unordered` comment on the range line
// (or the line above) suppresses the diagnostic and documents why the
// order cannot leak.
//
// The order-insensitivity analysis is deliberately conservative. Inside
// the loop body these effects are accepted:
//
//   - writes into maps (m[k] = v, delete(m, k)) — sets are order-free;
//   - commutative accumulation (x += v, n++, ...);
//   - reads and writes of variables declared inside the loop;
//   - appends to an outer slice, provided that slice is passed to a
//     sort.* / slices.Sort* call after the loop in the same function.
//
// Anything else that can observe the order — calls, channel sends, plain
// assignments to outer variables, early return/break — is flagged.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "map iteration order must not leak into determinism-critical state",
	Run:  runMapIter,
}

func runMapIter(prog *Program, p *Package) []Finding {
	if !deterministicPackages[p.Name] {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if !isMapType(p.Info.Types[rs.X].Type) {
					return true
				}
				// The site is evaluated even when suppressed: a directive
				// only counts as consumed if the loop would actually be
				// flagged, so justifications over loops that became
				// order-safe are reported as stale by the audit.
				if f, bad := p.checkMapRange(fd, rs); bad {
					if prog.Suppressed("unordered", p.Fset.Position(rs.Pos())) {
						return true
					}
					out = append(out, f)
				}
				return true
			})
		}
	}
	return out
}

// checkMapRange decides whether one map-range site is order-safe; if not
// it returns the diagnostic to report.
func (p *Package) checkMapRange(fd *ast.FuncDecl, rs *ast.RangeStmt) (Finding, bool) {
	c := &rangeCheck{p: p, rs: rs, locals: make(map[types.Object]bool)}
	// The range variables themselves are per-iteration locals.
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.Info.Defs[id]; obj != nil {
				c.locals[obj] = true
			}
		}
	}
	c.stmts(rs.Body.List)
	if c.reason != "" {
		return p.finding("mapiter", c.pos, "map iteration order can leak: %s (sort first, or justify with //lotec:unordered)", c.reason), true
	}
	// Appended-to outer slices are fine only when sorted after the loop.
	for _, cand := range c.appends {
		if !p.sortedAfter(fd, rs, cand) {
			return p.finding("mapiter", rs.Pos(),
				"results appended to %q in map order but never sorted before use (sort after the loop, or justify with //lotec:unordered)",
				cand.Name()), true
		}
	}
	return Finding{}, false
}

// rangeCheck walks one map-range body classifying its effects.
type rangeCheck struct {
	p       *Package
	rs      *ast.RangeStmt
	locals  map[types.Object]bool // objects declared inside the body
	appends []types.Object        // outer slices accumulated via append
	reason  string                // first order-sensitive effect found
	pos     token.Pos
}

func (c *rangeCheck) fail(pos token.Pos, format string, args ...any) {
	if c.reason == "" {
		c.reason = fmt.Sprintf(format, args...)
		c.pos = pos
	}
}

func (c *rangeCheck) isLocal(id *ast.Ident) bool {
	if id == nil || id.Name == "_" {
		return true
	}
	if obj := c.p.Info.Defs[id]; obj != nil && c.locals[obj] {
		return true
	}
	if obj := c.p.Info.Uses[id]; obj != nil && c.locals[obj] {
		return true
	}
	return false
}

func (c *rangeCheck) stmts(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
		if c.reason != "" {
			return
		}
	}
}

func (c *rangeCheck) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		c.assign(st)
	case *ast.IncDecStmt:
		// x++ / x-- commute across iterations.
		c.exprReads(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						if obj := c.p.Info.Defs[name]; obj != nil {
							c.locals[obj] = true
						}
					}
					for _, v := range vs.Values {
						c.exprReads(v)
					}
				}
			}
		}
	case *ast.ExprStmt:
		c.exprStmt(st.X)
	case *ast.IfStmt:
		if st.Init != nil {
			c.stmt(st.Init)
		}
		c.exprReads(st.Cond)
		c.stmts(st.Body.List)
		if st.Else != nil {
			c.stmt(st.Else)
		}
	case *ast.BlockStmt:
		c.stmts(st.List)
	case *ast.ForStmt:
		if st.Init != nil {
			c.stmt(st.Init)
		}
		if st.Cond != nil {
			c.exprReads(st.Cond)
		}
		if st.Post != nil {
			c.stmt(st.Post)
		}
		c.stmts(st.Body.List)
	case *ast.RangeStmt:
		for _, v := range []ast.Expr{st.Key, st.Value} {
			if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
				if obj := c.p.Info.Defs[id]; obj != nil {
					c.locals[obj] = true
				}
			}
		}
		c.exprReads(st.X)
		c.stmts(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			c.stmt(st.Init)
		}
		if st.Tag != nil {
			c.exprReads(st.Tag)
		}
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cl.List {
					c.exprReads(e)
				}
				c.stmts(cl.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		c.fail(st.Pos(), "type switch inside map range")
	case *ast.BranchStmt:
		if st.Tok == token.BREAK {
			c.fail(st.Pos(), "break picks an arbitrary map element")
		}
		// continue is order-free.
	case *ast.ReturnStmt:
		c.fail(st.Pos(), "return from inside map range depends on which key is visited first")
	case *ast.SendStmt:
		c.fail(st.Pos(), "channel send publishes elements in map order")
	case *ast.GoStmt, *ast.DeferStmt:
		c.fail(s.Pos(), "go/defer inside map range runs in map order")
	case *ast.EmptyStmt, *ast.LabeledStmt:
		// fine / unwrap
		if ls, ok := s.(*ast.LabeledStmt); ok {
			c.stmt(ls.Stmt)
		}
	default:
		c.fail(s.Pos(), "statement with order-dependent effects")
	}
}

// assign classifies one assignment inside the body.
func (c *rangeCheck) assign(st *ast.AssignStmt) {
	for _, rhs := range st.Rhs {
		c.exprReads(rhs)
	}
	if st.Tok == token.DEFINE {
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := c.p.Info.Defs[id]; obj != nil {
					c.locals[obj] = true
				}
			}
		}
		return
	}
	for i, lhs := range st.Lhs {
		root := rootIdent(lhs)
		if root != nil && c.isLocal(root) {
			continue
		}
		// Map element writes are set-building: order-free.
		if ix, ok := lhs.(*ast.IndexExpr); ok && isMapType(c.p.Info.Types[ix.X].Type) {
			continue
		}
		// Compound assignment (+=, |=, ...) commutes for the accumulator
		// patterns that appear here.
		if st.Tok != token.ASSIGN {
			continue
		}
		// x = append(x, ...) on an outer slice: defer judgment until we
		// know whether it is sorted after the loop.
		if i < len(st.Rhs) {
			if call, ok := st.Rhs[i].(*ast.CallExpr); ok && isBuiltin(c.p, call, "append") {
				if root != nil {
					if obj := c.p.Info.Uses[root]; obj != nil {
						if sameRoot(c.p, call.Args[0], obj) {
							c.appends = append(c.appends, obj)
							continue
						}
					}
				}
			}
		}
		name := "expression"
		if root != nil {
			name = root.Name
		}
		c.fail(lhs.Pos(), "assignment to outer %q overwrites in map order", name)
	}
}

// exprStmt classifies a bare expression statement (normally a call).
func (c *rangeCheck) exprStmt(e ast.Expr) {
	if call, ok := e.(*ast.CallExpr); ok {
		if isBuiltin(c.p, call, "delete") {
			return // removing from a set is order-free
		}
		c.exprReads(e)
		if c.reason == "" {
			c.fail(call.Pos(), "call %s has effects that may observe map order", callName(call))
		}
		return
	}
	c.exprReads(e)
}

// exprReads scans an expression for order-sensitive sub-effects (nested
// calls that are not pure builtins/conversions, function literals).
func (c *rangeCheck) exprReads(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if c.reason != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if isPureCall(c.p, x) {
				return true // arguments still scanned
			}
			c.fail(x.Pos(), "call %s has effects that may observe map order", callName(x))
			return false
		case *ast.FuncLit:
			c.fail(x.Pos(), "function literal inside map range")
			return false
		}
		return true
	})
}

// isPureCall reports whether a call is a type conversion or an effect-free
// builtin, which cannot leak iteration order by themselves.
func isPureCall(p *Package, call *ast.CallExpr) bool {
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return true // conversion
	}
	switch callName(call) {
	case "len", "cap", "make", "new", "min", "max", "append", "copy", "delete":
		return true
	}
	return false
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(p *Package, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := p.Info.Uses[id].(*types.Builtin)
	return isB
}

// callName renders a call's function expression for diagnostics.
func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return "(...)." + f.Sel.Name
	default:
		return "(func expr)"
	}
}

// sameRoot reports whether e's left-most identifier resolves to obj.
func sameRoot(p *Package, e ast.Expr, obj types.Object) bool {
	id := rootIdent(e)
	if id == nil {
		return false
	}
	return p.Info.Uses[id] == obj
}

// sortedAfter reports whether obj (a slice accumulated inside rs) is
// passed to a recognized sort call after the range statement within fd.
func (p *Package) sortedAfter(fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !isSortCall(call) || len(call.Args) == 0 {
			return true
		}
		arg := call.Args[0]
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = u.X
		}
		if sameRoot(p, arg, obj) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isSortCall recognizes stdlib sorting entry points.
func isSortCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	switch pkg.Name {
	case "sort":
		switch sel.Sel.Name {
		case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		switch sel.Sel.Name {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}
