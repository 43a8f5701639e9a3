package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
}

// Program is a loaded, type-checked repository. Packages are the ones
// the patterns named, and every analyzer reports on them alone. All
// holds them plus every other non-test package of the repository's
// modules, the nested benchmark module included: a whole-program
// analyzer (testonly) must see every caller, whatever subset is linted.
type Program struct {
	Packages []*Package
	All      []*Package
}

// Load enumerates the packages matching the patterns with `go list`,
// adds the rest of the module at dir and of the modules one directory
// below it as context, parses and type-checks them (non-test files
// only — test code is exempt from every invariant anyway) and returns
// them ready to analyze. Imports
// within the repository resolve against the loaded set in dependency
// order; stdlib imports are type-checked from GOROOT source, so the
// loader needs nothing beyond the go toolchain and the standard
// library.
func Load(dir string, patterns []string) (*Program, error) {
	targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	nested, err := filepath.Glob(filepath.Join(dir, "*", "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: finding modules under %s: %w", dir, err)
	}
	mods := []string{dir}
	for _, gomod := range nested {
		mods = append(mods, filepath.Dir(gomod))
	}
	byPath := map[string]*listedPackage{}
	named := map[string]bool{}
	for _, lp := range targets {
		byPath[lp.ImportPath] = lp
		named[lp.ImportPath] = true
	}
	for _, mod := range mods {
		listed, err := goList(mod, []string{"./..."})
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if byPath[lp.ImportPath] == nil {
				byPath[lp.ImportPath] = lp
			}
		}
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	fset := token.NewFileSet()
	ld := &loader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		listed: byPath,
		loaded: map[string]*Package{},
	}
	prog := &Program{}
	for _, path := range paths {
		pkg, err := ld.check(byPath[path])
		if err != nil {
			return nil, err
		}
		prog.All = append(prog.All, pkg)
		if named[path] {
			prog.Packages = append(prog.Packages, pkg)
		}
	}
	return prog, nil
}

// goList runs `go list -json` on the patterns in dir.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s in %s: %w", strings.Join(patterns, " "), dir, err)
	}
	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := &listedPackage{}
		if err := dec.Decode(lp); err == io.EOF {
			return listed, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		listed = append(listed, lp)
	}
}

// loader type-checks listed packages in dependency order, memoized, and
// falls back to the GOROOT source importer for everything outside the
// listed set.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	listed map[string]*listedPackage
	loaded map[string]*Package
}

func (ld *loader) Import(path string) (*types.Package, error) {
	if lp, ok := ld.listed[path]; ok {
		pkg, err := ld.check(lp)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) check(lp *listedPackage) (*Package, error) {
	if pkg, ok := ld.loaded[lp.ImportPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", lp.ImportPath)
		}
		return pkg, nil
	}
	ld.loaded[lp.ImportPath] = nil // cycle marker
	var files []string
	for _, f := range lp.GoFiles {
		files = append(files, filepath.Join(lp.Dir, f))
	}
	pkg, err := typeCheck(ld.fset, lp.ImportPath, files, ld)
	if err != nil {
		return nil, err
	}
	ld.loaded[lp.ImportPath] = pkg
	return pkg, nil
}

// typeCheck parses the files and type-checks them as one package,
// resolving imports through imp. Comments are kept: the wallclock
// analyzer reads //dita:wallclock directives and the fixture harness
// reads // want expectations.
func typeCheck(fset *token.FileSet, path string, files []string, imp types.Importer) (*Package, error) {
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: parsed, Types: tpkg, Info: info}, nil
}
