// Package lint is a from-scratch static-analysis framework for this
// repository, built only on the standard library's go/parser, go/ast and
// go/types (no golang.org/x/tools dependency). It exists because the
// invariants LOTEC's reproduction depends on — bit-for-bit deterministic
// simulation runs, mutex discipline in the lock service, and errors handled
// at the I/O boundary — are invisible to the compiler and to go vet. The
// suite keeps an analyzer only where no test catches its bug: the wire
// protocol's three-way sync, the zero-allocation hot paths, the other
// nondeterminism sources (wall clock, global math/rand, environment reads,
// multi-case select) and lock-order inversions are checked by running code
// instead (internal/wire's registry tests, the TestAllocs* gates, the
// golden simulator outputs and replay tests, and the deadline on the
// promotion and availability tests).
//
// Three repo-specific analyzers are provided:
//
//   - mapiter:  flags `for range` over maps in determinism-critical
//     packages (every module package the simulator and the replay
//     reach) unless the loop's results are sorted before use or the site
//     carries a `//lotec:unordered` justification comment.
//   - lockheld: struct fields annotated `// guarded by mu` may only be
//     accessed in methods that hold that mutex on a dominating path
//     (conservative intra-package check; a `Locked` method-name suffix
//     asserts the caller holds the lock).
//   - errdrop:  implicitly discarded error returns in the transport,
//     server, wire, sim and node packages (an explicit `_ =` is the
//     sanctioned discard marker).
//
// After the analyzers run, RunAll audits every `//lotec:` directive in the
// analyzed sources: unknown directives and suppressions with no matching
// diagnostic site are themselves findings, so stale justifications cannot
// accumulate.
//
// Diagnostics are emitted as `file:line:col: [name] message` in a
// deterministic order so output is diffable, and as JSON for machines.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Finding is one diagnostic.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked package handed to analyzers.
type Package struct {
	// Path is the import path (synthetic for fixture loads).
	Path string
	// Name is the package name from the package clauses.
	Name string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset positions every node of Files.
	Fset *token.FileSet
	// Files are the parsed sources, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's fact tables.
	Info *types.Info
}

// Analyzer is one invariant checker, run once per package over the
// program's shared type-checked state.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, p *Package) []Finding
}

// All returns every analyzer of the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{MapIter, LockHeld, ErrDrop}
}

// knownDirectives are the `//lotec:<name>` markers the suite understands.
// Anything else trailing `//lotec:` is a typo and gets flagged by the
// directive audit.
var knownDirectives = map[string]string{
	"unordered": "mapiter",
}

// directive is one `//lotec:<name>` comment occurrence in analyzed source.
type directive struct {
	name string
	file string
	line int
	used bool
}

// Program is the shared, fully loaded view the analyzers operate on: every
// type-checked package plus the cross-package directive registry. Loading
// (and stdlib type-checking) happens once; every analyzer reuses it.
type Program struct {
	Pkgs []*Package

	directives []*directive
	byFileLine map[string]map[int]*directive
}

// NewProgram indexes the packages and their `//lotec:` directives.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:       pkgs,
		byFileLine: make(map[string]map[int]*directive),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//lotec:")
					if !ok {
						continue
					}
					// A justification may follow the marker, e.g.
					// `//lotec:unordered — sorted below`.
					name := rest
					if i := strings.IndexAny(rest, " \t—"); i >= 0 {
						name = rest[:i]
					}
					pos := p.Fset.Position(c.Pos())
					d := &directive{name: name, file: pos.Filename, line: pos.Line}
					prog.directives = append(prog.directives, d)
					m := prog.byFileLine[d.file]
					if m == nil {
						m = make(map[int]*directive)
						prog.byFileLine[d.file] = m
					}
					m[d.line] = d
				}
			}
		}
	}
	return prog
}

// Suppressed reports whether a site at pos carries the named directive, on
// the same line or the line directly above; a positive answer marks the
// directive as consumed for the staleness audit. Analyzers must call this
// only for sites that would otherwise be flagged — a directive that never
// suppresses anything is stale by definition.
func (prog *Program) Suppressed(name string, pos token.Position) bool {
	m := prog.byFileLine[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d, ok := m[line]; ok && d.name == name {
			d.used = true
			return true
		}
	}
	return false
}

// auditDirectives flags unknown `//lotec:` markers and suppressions that no
// analyzer consumed — stale justifications over code that no longer trips
// the check they silence.
func (prog *Program) auditDirectives() []Finding {
	var out []Finding
	for _, d := range prog.directives {
		analyzer, known := knownDirectives[d.name]
		if !known {
			out = append(out, Finding{
				Analyzer: "directive",
				File:     d.file,
				Line:     d.line,
				Col:      1,
				Message:  fmt.Sprintf("unknown directive //lotec:%s (known: unordered)", d.name),
			})
			continue
		}
		if !d.used {
			out = append(out, Finding{
				Analyzer: "directive",
				File:     d.file,
				Line:     d.line,
				Col:      1,
				Message:  fmt.Sprintf("stale //lotec:%s — no %s diagnostic site matches this suppression any more; delete it", d.name, analyzer),
			})
		}
	}
	return out
}

// Timing is one analyzer's wall-clock cost over the whole program.
type Timing struct {
	Analyzer string
	Elapsed  time.Duration
}

// RunAll applies every analyzer to every package, audits the suppression
// directives, and returns the combined findings in deterministic order.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Finding {
	fs, _ := RunAllTimed(pkgs, analyzers)
	return fs
}

// RunAllTimed is RunAll plus per-analyzer wall-clock timings, in analyzer
// order. The type-checked program is built once and shared by every
// analyzer; the timings therefore measure pure analysis, not loading.
func RunAllTimed(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []Timing) {
	prog := NewProgram(pkgs)
	var out []Finding
	timings := make([]Timing, 0, len(analyzers)+1)
	for _, a := range analyzers {
		start := time.Now()
		for _, p := range prog.Pkgs {
			out = append(out, a.Run(prog, p)...)
		}
		timings = append(timings, Timing{Analyzer: a.Name, Elapsed: time.Since(start)})
	}
	start := time.Now()
	out = append(out, prog.auditDirectives()...)
	timings = append(timings, Timing{Analyzer: "directive", Elapsed: time.Since(start)})
	Sort(out)
	return out, timings
}

// Sort orders findings by file, line, column, analyzer, message.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// finding builds a Finding at pos.
func (p *Package) finding(analyzer string, pos token.Pos, format string, args ...any) Finding {
	position := p.Fset.Position(pos)
	return Finding{
		Analyzer: analyzer,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// rootIdent digs through selectors, indexes, slices, stars and parens to
// the left-most identifier of an expression (nil if there is none).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
