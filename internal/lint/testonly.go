package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"
)

// TestOnly keeps test-only code in tests: an exported function or
// method declared in a non-test file of an internal/ package must be
// referenced by non-test code somewhere in the program — its own
// package, another one, a command, an example or the benchmark module.
// Code that only tests call belongs in a _test.go file (export_test.go
// when the package's own tests are its callers). Two kinds of
// declaration are exempt: a method that satisfies an interface, since
// it may be called through one, and a declaration whose doc comment
// carries a //dita:testonly <reason> directive, for the few helpers the
// tests of other packages must reach (a _test.go file cannot export to
// them). The directive is audited like //dita:wallclock: one without a
// reason, or on a declaration non-test code references, is diagnosed.
// A function's references to itself do not count.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "exported functions and methods under internal/ that only tests reference; helpers other packages' tests need opt out via //dita:testonly <reason>",
	Run:  runTestOnly,
}

// testOnlyDirective is the doc-comment form of the exemption.
const testOnlyDirective = "dita:testonly"

func runTestOnly(pass *Pass) {
	pkg := pass.Pkg
	if !strings.HasPrefix(pkg.Path, "internal/") && !strings.Contains(pkg.Path, "/internal/") {
		return
	}
	used := nonTestRefs(pass.Program, pkg.Types)
	ifaces := sync.OnceValue(func() map[string][]*types.Interface { return interfacesByMethod(pass.Program) })
	for _, file := range pkg.Files {
		if isTestFile(pkg, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			reason, directive := testOnlyReason(fd.Doc)
			switch {
			case directive && reason == "":
				pass.Reportf(fd.Name.Pos(), "//dita:testonly on %s needs a reason", funcName(fn))
			case directive && used[fn]:
				pass.Reportf(fd.Name.Pos(), "stale //dita:testonly directive: non-test code references %s", funcName(fn))
			case directive || used[fn]:
			case fd.Recv != nil && satisfiesInterface(fn, ifaces()):
			default:
				pass.Reportf(fd.Name.Pos(), "exported %s has no caller outside tests; delete it, move it into a _test.go file, or give it a //dita:testonly reason", funcName(fn))
			}
		}
	}
}

// nonTestRefs collects the functions and methods of target that
// non-test code anywhere in the program references, by call or as a
// value. A reference from inside the function's own declaration (a
// recursive call) does not count.
func nonTestRefs(prog *Program, target *types.Package) map[*types.Func]bool {
	used := map[*types.Func]bool{}
	for _, pkg := range prog.All {
		for _, file := range pkg.Files {
			if isTestFile(pkg, file.Pos()) {
				continue
			}
			for _, decl := range file.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := pkg.Info.Uses[id].(*types.Func)
					if !ok || fn.Pkg() != target {
						return true
					}
					if fn = fn.Origin(); fn != self {
						used[fn] = true
					}
					return true
				})
			}
		}
	}
	return used
}

// testOnlyReason finds a //dita:testonly directive in a doc comment and
// returns the reason that follows it.
func testOnlyReason(doc *ast.CommentGroup) (reason string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		rest, found := strings.CutPrefix(c.Text, "//"+testOnlyDirective)
		if found && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// satisfiesInterface reports whether the method's receiver type, as a
// value or a pointer, implements one of the interfaces that have a
// method of the same name.
func satisfiesInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// interfacesByMethod indexes by method name error and the named
// interfaces declared in any package the program reaches, the standard
// library included.
func interfacesByMethod(prog *Program) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue // uninstantiated generic interfaces have no fixed method set
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
				add(iface)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog.All {
		visit(pkg.Types)
	}
	return byName
}

// funcName renders a function as it is written at a call site: F, or
// T.M for a method of T or *T.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
