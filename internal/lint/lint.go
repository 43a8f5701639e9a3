// Package lint is the repository's determinism/durability static
// analyzer. It mechanically enforces the invariants every PR has so far
// staked on review discipline alone:
//
//   - bit-identical output at any Parallelism — no map-iteration-order
//     dependence (maporder), no shared-state writes inside pool chunk
//     closures (poolpurity), no scheduling-dependent float reductions
//     (floatreduce);
//   - no wall-clock or global-randomness leakage into deterministic
//     paths — time.Now/time.Since only at annotated timing sites,
//     global math/rand never (wallclock);
//   - every artifact write atomic and checksummed — os.WriteFile and
//     friends only inside internal/atomicio (atomicwrite);
//   - no test-only API — every exported function or method under
//     internal/ has a caller outside tests, unless it satisfies an
//     interface or carries a //dita:testonly <reason> directive
//     (testonly, the one whole-program analyzer).
//
// The suite is stdlib-only (go/parser + go/types; packages enumerated
// via `go list`). cmd/dita-lint drives it over ./... as a hard-failing
// CI leg; the self-tests in this package pin each analyzer's exact
// diagnostic set against testdata fixtures.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects the files of a
// type-checked package and reports diagnostics through the pass.
type Analyzer struct {
	Name string // short invariant name, printed in diagnostics
	Doc  string // one-line description of the enforced rule
	Run  func(*Pass)
}

// Package is a loaded, type-checked package ready to be analyzed.
type Package struct {
	Path  string // import path (fixtures use their testdata-relative path)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass carries one analyzer's run over one package. Program is the
// whole loaded program, for analyzers whose rule depends on code
// outside the package (testonly).
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Program  *Program
	diags    *[]Diagnostic
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicWrite,
		FloatReduce,
		MapOrder,
		PoolPurity,
		TestOnly,
		WallClock,
	}
}

// ByName resolves an analyzer by its Name, nil when unknown.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to every package the program's patterns
// named and returns the diagnostics sorted by file, line, column,
// analyzer.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Program: prog, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// isTestFile reports whether the file holding pos is a _test.go file.
// Test code is exempt from every analyzer: tests measure time, seed
// global rand and write scratch files on purpose.
func isTestFile(pkg *Package, pos token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.Position(pos).Filename, "_test.go")
}

// pkgPathIs reports whether path is the repo package with the given
// tail — matching both the real module path ("dita/"+tail) and the bare
// tail the testdata fixtures are loaded under.
func pkgPathIs(path, tail string) bool {
	return path == tail || path == "dita/"+tail || strings.HasSuffix(path, "/"+tail)
}

// calleeFunc resolves the function or method a call invokes, nil for
// builtins, conversions and indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether the call invokes a package-level function
// with the given name from the package path (exact stdlib path, or a
// repo path matched by pkgPathIs).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == pkgPath || pkgPathIs(p, pkgPath)
}

// isFloat reports whether t is (or has underlying) float32/float64.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// parentMap records, for every node in a file, its enclosing node.
// Stdlib go/ast has no parent links; the analyzers need them to
// classify the context of an expression (enclosing assignment, call,
// function).
type parentMap map[ast.Node]ast.Node

func buildParents(file *ast.File) parentMap {
	parents := parentMap{}
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingFunc returns the body of the innermost function declaration
// or literal containing n, nil at file scope.
func enclosingFunc(parents parentMap, n ast.Node) *ast.BlockStmt {
	for p := parents[n]; p != nil; p = parents[p] {
		switch f := p.(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}
