package lint

import (
	"go/ast"
	"go/types"
)

// errdropPackages are the package names where a silently dropped error
// hides partition, short-write and decode failures (the I/O boundary) or a
// diverging replica (the deterministic engine and simulator).
var errdropPackages = map[string]bool{
	"transport": true,
	"server":    true,
	"wire":      true,
	"sim":       true,
	"node":      true,
}

// ErrDrop flags calls whose error result is implicitly discarded in the
// transport, server, wire, sim and node packages — the layers where an
// ignored error means a lost message, a torn frame, or an engine silently
// diverging from the directory, rather than a cosmetic slip. An explicit
// `_ = f()` assignment is the sanctioned way to document a deliberate
// discard and is not flagged; neither are discards in other packages,
// where go vet's printf-style checks and code review suffice.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "error returns in transport/server/wire/sim/node must be handled or explicitly discarded",
	Run:  runErrDrop,
}

func runErrDrop(prog *Program, p *Package) []Finding {
	if !errdropPackages[p.Name] {
		return nil
	}
	var out []Finding
	report := func(call *ast.CallExpr, how string) {
		if returnsError(p, call) && !infallibleWrite(p, call) {
			out = append(out, p.finding("errdrop", call.Pos(),
				"%s returns an error that is discarded %s (handle it or assign to _ explicitly)",
				callName(call), how))
		}
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					report(call, "by an expression statement")
				}
			case *ast.GoStmt:
				report(x.Call, "by a go statement")
			case *ast.DeferStmt:
				report(x.Call, "by a defer statement")
			}
			return true
		})
	}
	return out
}

// infallibleWrite reports whether the call is a write whose error result
// is documented to always be nil: fmt.Fprint* into a *strings.Builder or
// *bytes.Buffer, or a Write* method on those types directly. Forcing an
// explicit discard there would bury the real findings in noise.
func infallibleWrite(p *Package, call *ast.CallExpr) bool {
	fn := calleeOf(p, call)
	if fn == nil {
		return false
	}
	switch {
	case stdFuncIs(fn, "fmt", "Fprintf"), stdFuncIs(fn, "fmt", "Fprintln"), stdFuncIs(fn, "fmt", "Fprint"):
		return len(call.Args) > 0 && isInfallibleWriter(p.Info.TypeOf(call.Args[0]))
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		if named := recvNamed(fn); named != nil {
			return isInfallibleWriter(named)
		}
	}
	return false
}

// isInfallibleWriter reports whether t (or its pointee) is strings.Builder
// or bytes.Buffer, whose Write methods never return a non-nil error.
func isInfallibleWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "strings" && name == "Builder") || (pkg == "bytes" && name == "Buffer")
}

// returnsError reports whether the call's result type is, or includes, an
// error.
func returnsError(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "error" && obj.Pkg() == nil
}

// calleeOf resolves a call expression to the *types.Func it invokes, or nil
// for dynamic calls (function values, interface methods without a concrete
// target), conversions and builtins.
func calleeOf(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			if fn != nil && interfaceMethod(fn) {
				return nil // dynamic dispatch: target unknown
			}
			return fn
		}
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// interfaceMethod reports whether fn is declared on an interface type (so a
// call to it dispatches dynamically).
func interfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// stdFuncIs reports whether fn is the standard-library function
// <pkgPath>.<name> (package-level, not a method).
func stdFuncIs(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig == nil || sig.Recv() == nil
}

// recvNamed returns the named type of fn's receiver (dereferencing a
// pointer receiver), or nil for package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
