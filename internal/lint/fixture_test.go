package lint

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// loadFixture loads the fixture packages at srcRoot/path for the
// analyzer self-tests, as one program whose named packages are paths.
// Unlike Load it reads every .go file in each directory — including
// _test.go-named fixtures, which exist precisely to pin the test-file
// exemptions — and resolves imports first against sibling fixture
// packages under srcRoot (so a fixture can import a stub "parallel"
// package), then against the standard library.
func loadFixture(srcRoot string, paths ...string) (*Program, error) {
	fset := token.NewFileSet()
	ld := &fixtureLoader{
		fset:    fset,
		srcRoot: srcRoot,
		std:     importer.ForCompiler(fset, "source", nil),
		loaded:  map[string]*Package{},
	}
	prog := &Program{}
	for _, path := range paths {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	prog.All = prog.Packages
	return prog, nil
}

type fixtureLoader struct {
	fset    *token.FileSet
	srcRoot string
	std     types.Importer
	loaded  map[string]*Package
}

func (ld *fixtureLoader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.srcRoot, filepath.FromSlash(path)); dirExists(dir) {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.std.Import(path)
}

func (ld *fixtureLoader) load(path string) (*Package, error) {
	if pkg, ok := ld.loaded[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: fixture import cycle through %s", path)
		}
		return pkg, nil
	}
	ld.loaded[path] = nil
	dir := filepath.Join(ld.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: fixture %s: %w", path, err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: fixture %s has no .go files", path)
	}
	pkg, err := typeCheck(ld.fset, path, files, ld)
	if err != nil {
		return nil, err
	}
	ld.loaded[path] = pkg
	return pkg, nil
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}
