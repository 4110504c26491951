package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enforces the zero-allocation contract on functions annotated
// `//lotec:noalloc` in their doc comment: the directory grant/release fast
// path, the wire codec primitives and the transfer-pool helpers, where a
// per-call allocation multiplies by every page crossing the cluster.
//
// Inside an annotated function these constructs are flagged:
//
//   - make / new, slice, map and &T{} composite literals;
//   - append that is not the amortized self-assignment form
//     `x = append(x, ...)` (growing a reused buffer is admitted — that is
//     the codec's whole design — but growing a fresh slice is not);
//   - function literals (closure capture) and go statements;
//   - string↔[]byte/[]rune conversions and string concatenation;
//   - interface boxing: passing, returning or assigning a concrete
//     non-pointer-shaped value where an interface is expected;
//   - an escaping local: passing, returning or assigning &v of a function's
//     local v where an interface is expected (`pool.Put(&b)` moves b to the
//     heap on every call);
//   - defer inside a loop;
//   - calls to module functions not themselves marked //lotec:noalloc,
//     calls to standard-library packages outside a small allowlist (sync,
//     sync/atomic, math, math/bits, encoding/binary, slices), and dynamic
//     calls through function values or interface methods.
//
// Two escape hatches keep the check aligned with how the hot paths fail in
// practice. Branches that terminate by returning a non-nil error (or
// panicking) are cold — `if err != nil { return fmt.Errorf(...) }` is the
// failure path, not the fast path — and are exempt wholesale. And a
// `//lotec:alloc-ok` directive on a flagged line documents a deliberate
// residual allocation (a pool miss, say); the directive audit reports it
// once the allocation disappears.
//
// The check is syntactic: it neither proves the compiler heap-allocates a
// flagged construct (escape analysis may stack-allocate it) nor catches
// allocations hidden behind unannotated dependencies it was told to trust.
// It is a regression tripwire for the zero-allocation hot paths, not a
// profiler: the make bench-allocs gates measure them.
var HotAlloc = &Analyzer{
	Name:       "hotalloc",
	Doc:        "functions marked //lotec:noalloc must not contain allocating constructs",
	RunProgram: runHotAlloc,
}

// noallocStdlibAllow are standard-library packages whose calls are admitted
// in noalloc functions: their relevant entry points are allocation-free.
var noallocStdlibAllow = map[string]bool{
	"sync":            true,
	"sync/atomic":     true,
	"math":            true,
	"math/bits":       true,
	"encoding/binary": true,
	"slices":          true, // in-place pdqsort/search over caller-owned slices
}

func runHotAlloc(prog *Program) []Finding {
	g := prog.graph()
	annotated := make(map[*types.Func]bool)
	for _, fi := range g.sortedFuncs() {
		if pos, ok := noallocMark(fi); ok {
			annotated[fi.obj] = true
			prog.MarkUsed("noalloc", pos)
		}
	}
	var out []Finding
	for _, fi := range g.sortedFuncs() {
		if !annotated[fi.obj] {
			continue
		}
		c := &allocCheck{
			p:         fi.pkg,
			prog:      prog,
			g:         g,
			annotated: annotated,
			fname:     funcDisplayName(fi.obj),
			sig:       fi.obj.Type().(*types.Signature),
		}
		c.stmts(fi.decl.Body.List)
		out = append(out, c.out...)
	}
	return out
}

// noallocMark finds a //lotec:noalloc line in the function's doc comment.
func noallocMark(fi *funcInfo) (token.Position, bool) {
	if fi.decl.Doc == nil {
		return token.Position{}, false
	}
	for _, cm := range fi.decl.Doc.List {
		if cm.Text == "//lotec:noalloc" || strings.HasPrefix(cm.Text, "//lotec:noalloc ") ||
			strings.HasPrefix(cm.Text, "//lotec:noalloc\t") || strings.HasPrefix(cm.Text, "//lotec:noalloc —") {
			return fi.pkg.Fset.Position(cm.Pos()), true
		}
	}
	return token.Position{}, false
}

// allocCheck walks one noalloc function body.
type allocCheck struct {
	p         *Package
	prog      *Program
	g         *callGraph
	annotated map[*types.Func]bool
	fname     string
	sig       *types.Signature
	loop      int
	out       []Finding
}

func (c *allocCheck) flag(pos token.Pos, format string, args ...any) {
	position := c.p.Fset.Position(pos)
	if c.prog.Suppressed("alloc-ok", position) {
		return
	}
	c.out = append(c.out, c.p.finding("hotalloc", pos,
		"noalloc %s: "+format+" (justify with //lotec:alloc-ok)",
		append([]any{c.fname}, args...)...))
}

func (c *allocCheck) stmts(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

// coldableStmts walks a branch body, exempting it entirely when it
// terminates by returning a non-nil error or panicking — the cold failure
// path of a hot function.
func (c *allocCheck) coldableStmts(list []ast.Stmt) {
	if c.terminatesCold(list) {
		return
	}
	c.stmts(list)
}

// terminatesCold reports whether a statement list ends in `return <non-nil
// error ...>` or a panic call.
func (c *allocCheck) terminatesCold(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return c.returnsNonNilError(last)
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok && isBuiltin(c.p, call, "panic") {
			return true
		}
	}
	return false
}

// returnsNonNilError reports whether a return statement carries an
// error-typed expression that is not the nil literal. Concrete error types
// (`return &PageMissingError{...}`) count: the branch is just as cold as a
// fmt.Errorf one.
func (c *allocCheck) returnsNonNilError(ret *ast.ReturnStmt) bool {
	for _, e := range ret.Results {
		if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		if tv, ok := c.p.Info.Types[e]; ok && tv.Type != nil && isErrorLike(tv.Type) {
			return true
		}
	}
	return false
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorLike reports whether t is the error interface or a concrete type
// implementing it.
func isErrorLike(t types.Type) bool {
	return isErrorType(t) || types.Implements(t, errorIface)
}

func (c *allocCheck) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		c.assign(st)
	case *ast.ExprStmt:
		c.expr(st.X)
	case *ast.ReturnStmt:
		if c.returnsNonNilError(st) {
			return // cold failure path
		}
		for i, e := range st.Results {
			c.expr(e)
			if res := c.sig.Results(); res != nil && i < res.Len() && len(st.Results) == res.Len() {
				c.boxCheck(e, res.At(i).Type(), "return")
			}
		}
	case *ast.IfStmt:
		if st.Init != nil {
			c.stmt(st.Init)
		}
		c.expr(st.Cond)
		c.coldableStmts(st.Body.List)
		switch el := st.Else.(type) {
		case *ast.BlockStmt:
			c.coldableStmts(el.List)
		case *ast.IfStmt:
			c.stmt(el)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			c.stmt(st.Init)
		}
		c.expr(st.Cond)
		if st.Post != nil {
			c.stmt(st.Post)
		}
		c.loop++
		c.stmts(st.Body.List)
		c.loop--
	case *ast.RangeStmt:
		c.expr(st.X)
		c.loop++
		c.stmts(st.Body.List)
		c.loop--
	case *ast.SwitchStmt:
		if st.Init != nil {
			c.stmt(st.Init)
		}
		c.expr(st.Tag)
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cl.List {
					c.expr(e)
				}
				c.coldableStmts(cl.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			c.stmt(st.Init)
		}
		c.stmt(st.Assign)
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.coldableStmts(cl.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				if cl.Comm != nil {
					c.stmt(cl.Comm)
				}
				c.coldableStmts(cl.Body)
			}
		}
	case *ast.BlockStmt:
		c.stmts(st.List)
	case *ast.DeferStmt:
		if c.loop > 0 {
			c.flag(st.Pos(), "defer inside a loop allocates per iteration")
		}
		c.expr(st.Call)
	case *ast.GoStmt:
		c.flag(st.Pos(), "go statement allocates a goroutine")
	case *ast.IncDecStmt:
		c.expr(st.X)
	case *ast.SendStmt:
		c.expr(st.Chan)
		c.expr(st.Value)
		c.boxCheck(st.Value, chanElem(c.p.Info.TypeOf(st.Chan)), "channel send")
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		c.stmt(st.Stmt)
	}
}

// assign handles the self-append exemption and interface-boxing on plain
// assignments, then checks the operand expressions.
func (c *allocCheck) assign(st *ast.AssignStmt) {
	for i, rhs := range st.Rhs {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(c.p, call, "append") &&
			len(st.Lhs) == len(st.Rhs) && c.selfAppend(st.Lhs[i], call) {
			// x = append(x, ...): amortized growth into the reused buffer.
			for _, a := range call.Args[1:] {
				c.expr(a)
			}
			continue
		}
		c.expr(rhs)
		if st.Tok == token.ASSIGN && len(st.Lhs) == len(st.Rhs) {
			if lt := c.p.Info.TypeOf(st.Lhs[i]); lt != nil {
				c.boxCheck(rhs, lt, "assignment")
			}
		}
	}
}

// selfAppend reports whether call is `append(x, ...)` being assigned back
// to x (slicing of x in the first argument is fine: compaction like
// `h = append(h[:i], h[i+1:]...)` reuses the backing array).
func (c *allocCheck) selfAppend(lhs ast.Expr, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	arg := ast.Unparen(call.Args[0])
	for {
		if se, ok := arg.(*ast.SliceExpr); ok {
			arg = ast.Unparen(se.X)
			continue
		}
		break
	}
	lp, ok1 := exprPath(c.p, lhs)
	ap, ok2 := exprPath(c.p, arg)
	return ok1 && ok2 && lp == ap
}

// exprPath renders a selector chain like "w.buf" rooted at an identifier,
// with the root resolved to its object so shadowing cannot confuse the
// comparison.
func exprPath(p *Package, e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		if obj == nil {
			return "", false
		}
		return x.Name + "#" + p.Fset.Position(obj.Pos()).String(), true
	case *ast.SelectorExpr:
		base, ok := exprPath(p, x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	}
	return "", false
}

// expr recursively checks an expression for allocating constructs.
func (c *allocCheck) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		c.call(x)
	case *ast.FuncLit:
		c.flag(x.Pos(), "function literal allocates a closure")
	case *ast.CompositeLit:
		c.composite(x, false)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				c.composite(cl, true)
				return
			}
		}
		c.expr(x.X)
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			if t := c.p.Info.TypeOf(x); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					c.flag(x.Pos(), "string concatenation allocates")
				}
			}
		}
		c.expr(x.X)
		c.expr(x.Y)
	case *ast.ParenExpr:
		c.expr(x.X)
	case *ast.SelectorExpr:
		c.expr(x.X)
	case *ast.IndexExpr:
		c.expr(x.X)
		c.expr(x.Index)
	case *ast.SliceExpr:
		c.expr(x.X)
		c.expr(x.Low)
		c.expr(x.High)
		c.expr(x.Max)
	case *ast.StarExpr:
		c.expr(x.X)
	case *ast.KeyValueExpr:
		c.expr(x.Key)
		c.expr(x.Value)
	case *ast.TypeAssertExpr:
		c.expr(x.X)
	}
}

// composite classifies a composite literal: value struct and array literals
// are plain copies, everything else (slice, map, &T{}) allocates.
func (c *allocCheck) composite(cl *ast.CompositeLit, addressed bool) {
	t := c.p.Info.TypeOf(cl)
	for _, el := range cl.Elts {
		c.expr(el)
	}
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Struct:
		if addressed {
			c.flag(cl.Pos(), "&%s{} allocates", typeShort(t))
		}
	case *types.Array:
		if addressed {
			c.flag(cl.Pos(), "&%s{} allocates", typeShort(t))
		}
	default:
		c.flag(cl.Pos(), "%s composite literal allocates", typeShort(t))
	}
}

// call classifies one call expression.
func (c *allocCheck) call(call *ast.CallExpr) {
	for _, a := range call.Args {
		c.expr(a)
	}

	// Conversions: only string↔[]byte/[]rune copies.
	if tv, ok := c.p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			src := c.p.Info.TypeOf(call.Args[0])
			if stringBytesConversion(src, tv.Type) {
				c.flag(call.Pos(), "%s↔%s conversion copies", typeShort(src), typeShort(tv.Type))
			}
		}
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := c.p.Info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "make":
				c.flag(call.Pos(), "make allocates")
			case "new":
				c.flag(call.Pos(), "new allocates")
			case "append":
				c.flag(call.Pos(), "append outside `x = append(x, ...)` self-assignment grows a fresh slice")
			}
			return
		}
	}

	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		c.flag(fl.Pos(), "function literal allocates a closure")
		return
	}

	c.expr(call.Fun)
	fn := calleeOf(c.p, call)
	if fn == nil {
		c.flag(call.Pos(), "dynamic call %s (function value or interface method) may allocate", callName(call))
		return
	}
	if _, inModule := c.g.funcs[fn]; inModule {
		if !c.annotated[fn] {
			c.flag(call.Pos(), "calls %s, which is not marked //lotec:noalloc", funcDisplayName(fn))
		}
	} else if fn.Pkg() != nil && !noallocStdlibAllow[fn.Pkg().Path()] {
		c.flag(call.Pos(), "calls %s (outside the noalloc stdlib allowlist)", funcDisplayName(fn))
	}

	// Interface boxing of arguments against the callee's signature
	// (variadic tails excluded: those calls are flagged by other rules).
	if sig, ok := fn.Type().(*types.Signature); ok && !sig.Variadic() {
		for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
			c.boxCheck(call.Args[i], sig.Params().At(i).Type(), "argument")
		}
	}
}

// boxCheck flags storing a concrete non-pointer-shaped value into an
// interface-typed slot, which heap-allocates the boxed copy.
func (c *allocCheck) boxCheck(e ast.Expr, target types.Type, what string) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	// A generic callee's type parameter is interface-typed in go/types, but
	// instantiation substitutes the concrete type — no boxing happens.
	if _, isTP := target.(*types.TypeParam); isTP {
		return
	}
	if v := c.addressedLocal(e); v != nil {
		c.flag(e.Pos(), "%s takes the address of local %s, which escapes to the heap through %s", what, v.Name(), typeShort(target))
		return
	}
	src := c.p.Info.TypeOf(e)
	if src == nil || types.IsInterface(src) || pointerShaped(src) {
		return
	}
	if b, ok := src.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	c.flag(e.Pos(), "%s boxes %s into %s", what, typeShort(src), typeShort(target))
}

// addressedLocal returns the variable v when e is &v and v is local to a
// function (parameters included). A pointer fits an interface word without
// boxing, but the compiler cannot see where an interface value goes, so v
// itself moves to the heap: `pool.Put(&b)` allocates b on every call.
func (c *allocCheck) addressedLocal(e ast.Expr) *types.Var {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	id, ok := ast.Unparen(u.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := c.p.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

// pointerShaped reports whether values of t fit an interface word without
// boxing (pointers, channels, maps, funcs, unsafe.Pointer).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// stringBytesConversion reports whether src→dst is a string↔[]byte or
// string↔[]rune conversion (both directions copy).
func stringBytesConversion(src, dst types.Type) bool {
	if src == nil || dst == nil {
		return false
	}
	return (isStringT(src) && isByteOrRuneSlice(dst)) || (isByteOrRuneSlice(src) && isStringT(dst))
}

func isStringT(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// chanElem returns a channel type's element type (nil otherwise).
func chanElem(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ch, ok := t.Underlying().(*types.Chan); ok {
		return ch.Elem()
	}
	return nil
}

// typeShort renders a type compactly for diagnostics.
func typeShort(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
