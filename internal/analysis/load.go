package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Package is one loaded, type-checked package (or the external _test
// package of a directory, loaded as its own Package).
type Package struct {
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// ImportPath is the directory's import path within the module. The
	// external test package of a directory shares its directory's import
	// path; the two are distinguished by Types.Name().
	ImportPath string
	// Files are the parsed files that were type-checked together.
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info

	loader *Loader
}

// Loader locates, parses and type-checks packages of the enclosing
// module using only the standard library: go/build via the go/importer
// "source" importer for dependencies, go/parser + go/types for the
// packages under analysis. Test files are included, so invariants are
// enforced on test code too (PR 4 replaced timing sleeps in tests with
// synchronization precisely because test determinism matters).
type Loader struct {
	// Root is the module root (the directory containing go.mod); import
	// paths and diagnostic paths are derived relative to it.
	Root string
	// Module is the module path from go.mod.
	Module string
	// Tests selects whether _test.go files are loaded (driver default:
	// true).
	Tests bool
	// Workers bounds the number of directories parsed and type-checked
	// concurrently (<= 1 means serial). Results are merged in directory
	// order, so the loaded package list — and every diagnostic derived
	// from it — is byte-identical at any worker count.
	Workers int

	fset *token.FileSet
	imp  *lockedImporter
}

// lockedImporter serializes a types.Importer and consults the loader's
// own already-checked packages first. The first half makes the parallel
// loader sound (the go/importer source importer memoizes per-path results
// but is not safe for concurrent use, while token.FileSet and concurrent
// types.Config.Check calls for *different* packages are). The second half
// is what makes the call graph possible: when squat imports obs, the
// importer returns the *same* *types.Package the driver loaded for obs,
// so a *types.Func seen at a call site in squat is pointer-identical to
// the one defined in obs and cross-package edges resolve — and each
// module package is type-checked exactly once instead of once per
// importer. Two loaders may share imp, its lock and the file set it
// records positions in, each keeping its own checked packages, so the
// standard library is type-checked once for both.
type lockedImporter struct {
	mu      *sync.Mutex
	imp     types.Importer
	checked map[string]*types.Package
}

func (li *lockedImporter) register(path string, pkg *types.Package) {
	li.mu.Lock()
	defer li.mu.Unlock()
	li.checked[path] = pkg
}

func (li *lockedImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *lockedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if pkg := li.checked[path]; pkg != nil {
		return pkg, nil
	}
	if from, ok := li.imp.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return li.imp.Import(path)
}

// NewLoader builds a loader for the module rooted at root (a directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   abs,
		Module: mod,
		Tests:  true,
		fset:   fset,
		imp: &lockedImporter{
			mu:      new(sync.Mutex),
			imp:     importer.ForCompiler(fset, "source", nil),
			checked: map[string]*types.Package{},
		},
	}, nil
}

// FindModuleRoot walks upward from dir to the nearest directory
// containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", file)
}

// Load expands the given package patterns (a directory, or a directory
// followed by /... for the subtree rooted there; both relative to the
// process working directory) and returns the type-checked packages.
// Directories named testdata, vendor, or starting with "." or "_" are
// skipped during subtree expansion but are honoured when named
// explicitly, so fixture trees can be loaded on purpose without ever
// polluting a ./... run. Any parse or type-check failure aborts the load
// with an error naming the package: such a package also fails go build
// and go vet, and the whole-repo call graph needs every package.
//
// Loading runs in two phases over a pool of Workers goroutines. First
// every directory is parsed (concurrently — token.FileSet is safe) and
// its module-internal imports collected, along with the module packages
// those import that the patterns did not name (checked, not returned);
// then directories are type-checked in dependency waves, so that by the
// time a package is checked every module package it imports has already
// been checked and registered with the importer. That ordering is what gives the whole
// load a single type universe (see lockedImporter). Results are merged
// in directory order, so the package list — and every diagnostic derived
// from it — is identical at any worker count.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	n := len(dirs)
	workers := max(l.Workers, 1)
	runPool := func(count int, task func(int)) {
		if workers <= 1 || count <= 1 {
			for i := 0; i < count; i++ {
				task(i)
			}
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= count {
						return
					}
					task(i)
				}
			}()
		}
		wg.Wait()
	}

	// Phase 1: parse the requested directories, then, without their
	// tests, the module packages they import but did not name, until the
	// set is closed. Every module package is then checked here exactly
	// once: none reaches the source importer, which would make a second
	// copy of a package this load also checks.
	parsed := make([]parsedDir, n)
	runPool(n, func(i int) { parsed[i] = l.parseDir(dirs[i], l.Tests) })
	idxByPath := map[string]int{}
	for next := 0; next < len(parsed); {
		var missing []string
		for i := next; i < len(parsed); i++ {
			if parsed[i].err != nil {
				return nil, parsed[i].err
			}
			idxByPath[parsed[i].importPath] = i
		}
		for i := next; i < len(parsed); i++ {
			for p := range parsed[i].deps {
				if _, ok := idxByPath[p]; !ok && !slices.Contains(missing, p) {
					missing = append(missing, p)
				}
			}
		}
		sort.Strings(missing)
		deps := make([]parsedDir, len(missing))
		runPool(len(missing), func(i int) {
			rel := strings.TrimPrefix(strings.TrimPrefix(missing[i], l.Module), "/")
			deps[i] = l.parseDir(filepath.Join(l.Root, filepath.FromSlash(rel)), false)
		})
		next = len(parsed)
		parsed = append(parsed, deps...)
	}
	n = len(parsed)

	unmet := make([]map[int]bool, n)
	dependents := make([][]int, n)
	for i := range parsed {
		unmet[i] = map[int]bool{}
		for p := range parsed[i].deps {
			if j, ok := idxByPath[p]; ok && j != i {
				unmet[i][j] = true
			}
		}
	}
	for i := range parsed {
		for j := range unmet[i] {
			dependents[j] = append(dependents[j], i)
		}
	}

	// Phase 2: type-check in waves (Kahn's algorithm, one parallel pool
	// per wave). A wave is every not-yet-checked directory whose loaded
	// dependencies are all done; module dependency chains are shallow, so
	// the big leaf wave carries most of the parallelism. The load stops
	// after the first wave with a failure: a package importing a broken
	// one would only report the knock-on type mismatches.
	loaded := make([][]*Package, n)
	errs := make([]error, n)
	checked := make([]bool, n)
	for {
		var wave []int
		for i := range parsed {
			if !checked[i] && len(unmet[i]) == 0 {
				wave = append(wave, i)
			}
		}
		if len(wave) == 0 {
			break
		}
		runPool(len(wave), func(k int) {
			i := wave[k]
			loaded[i], errs[i] = l.checkDir(parsed[i])
		})
		for _, i := range wave {
			if errs[i] != nil {
				return nil, errs[i]
			}
			checked[i] = true
			for _, j := range dependents[i] {
				delete(unmet[j], i)
			}
		}
	}
	// Import cycles cannot occur in valid Go, but a broken tree might
	// contain one: name the first package left unchecked.
	for i := range parsed {
		if !checked[i] {
			return nil, fmt.Errorf("import cycle through %s", parsed[i].importPath)
		}
	}

	var pkgs []*Package
	for i := range dirs {
		pkgs = append(pkgs, loaded[i]...)
	}
	return pkgs, nil
}

func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		}
		if pat == "" || pat == "." {
			pat = "."
		}
		base, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if fi, err := os.Stat(base); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("package pattern %q: not a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != base && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory to its import path within the module.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("directory %s is outside module root %s", dir, l.Root)
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// parsedDir is one directory after the parse phase: its files split into
// the primary package (non-test files plus in-package test files) and
// the external _test package, and the set of module-internal packages
// they import.
type parsedDir struct {
	dir        string
	importPath string
	prim       []*ast.File
	xtest      []*ast.File
	deps       map[string]bool
	err        error
}

// parseDir parses one directory's files, honouring build constraints;
// _test.go files only when tests is set.
func (l *Loader) parseDir(dir string, tests bool) parsedDir {
	pd := parsedDir{dir: dir}
	pd.importPath, pd.err = l.importPathFor(dir)
	if pd.err != nil {
		return pd
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		pd.err = err
		return pd
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !tests {
			continue
		}
		// Honour build constraints (//go:build lines and GOOS/GOARCH file
		// suffixes) for the current platform, exactly as the go tool would:
		// e.g. snapfmt's mmap_linux.go / mmap_other.go pair must never be
		// type-checked together.
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			pd.err = err
			return pd
		} else if !match {
			continue
		}
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			pd.err = err
			return pd
		}
		if isTest && strings.HasSuffix(file.Name.Name, "_test") {
			pd.xtest = append(pd.xtest, file)
		} else {
			pd.prim = append(pd.prim, file)
		}
	}
	pd.deps = map[string]bool{}
	for _, files := range [][]*ast.File{pd.prim, pd.xtest} {
		for _, f := range files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == l.Module || strings.HasPrefix(p, l.Module+"/") {
					pd.deps[p] = true
				}
			}
		}
	}
	return pd
}

// checkDir type-checks one parsed directory: the primary package (which
// is then registered with the importer, so later packages see this exact
// *types.Package) and, when present, the external _test package.
func (l *Loader) checkDir(pd parsedDir) ([]*Package, error) {
	var pkgs []*Package
	if len(pd.prim) > 0 {
		p, err := l.check(pd.dir, pd.importPath, pd.prim)
		if err != nil {
			return nil, err
		}
		l.imp.register(pd.importPath, p.Types)
		pkgs = append(pkgs, p)
	}
	if len(pd.xtest) > 0 {
		p, err := l.check(pd.dir, pd.importPath, pd.xtest)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func (l *Loader) check(dir, importPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", importPath, err)
	}
	return &Package{
		Dir:        dir,
		ImportPath: importPath,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		loader:     l,
	}, nil
}
