package analysis

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadBuildConstraints: files excluded by a //go:build tag or a
// GOOS filename suffix must not be parsed or type-checked. Both excluded
// fixtures reference an undefined symbol, so including either fails the
// load loudly.
func TestLoadBuildConstraints(t *testing.T) {
	if build.Default.GOOS == "windows" {
		t.Skip("fixture assumes a non-windows GOOS")
	}
	pkgs := loadFixture(t, "constrained")
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if len(p.Files) != 1 {
		t.Fatalf("loaded %d files, want only ok.go", len(p.Files))
	}
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	if name := filepath.Base(l.fset.Position(p.Files[0].Pos()).Filename); name != "ok.go" {
		t.Errorf("loaded file = %s, want ok.go", name)
	}
	scope := p.Types.Scope()
	if scope.Lookup("Here") == nil {
		t.Error("ok.go's Here missing from the package scope")
	}
	if scope.Lookup("Tagged") != nil {
		t.Error("tagged.go was loaded despite its build tag")
	}
	if scope.Lookup("OnWindows") != nil {
		t.Error("ok_windows.go was loaded despite its GOOS suffix")
	}
}

// TestLoadBrokenFails: a package that fails to type-check fails the whole
// load, and the error names that package rather than a healthy one loaded
// beside it.
func TestLoadBrokenFails(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Load(
		filepath.Join("testdata", "analysis", "broken")+"/...",
		filepath.Join("testdata", "analysis", "src", "constrained"))
	if err == nil {
		t.Fatal("Load must fail on a broken package")
	}
	if msg := err.Error(); !strings.Contains(msg, "brokenpkg") || !strings.Contains(msg, "type-check") {
		t.Errorf("Load error %q does not name brokenpkg as failing to type-check", msg)
	}
}

// TestLoadAllSharedTypeUniverse: when one loaded package imports
// another, the importer must hand back the *same* *types.Package the
// loader checked — pointer identity is what makes cross-package call
// graph edges resolve.
func TestLoadAllSharedTypeUniverse(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("../squat", "../confusables")
	if err != nil {
		t.Fatal(err)
	}
	var squatPkg, confPkg *Package
	for _, p := range pkgs {
		switch filepath.Base(p.Dir) {
		case "squat":
			squatPkg = p
		case "confusables":
			confPkg = p
		}
	}
	if squatPkg == nil || confPkg == nil {
		t.Fatalf("missing loaded packages: %v", pkgs)
	}
	found := false
	for _, imp := range squatPkg.Types.Imports() {
		if imp.Path() == confPkg.ImportPath {
			found = true
			if imp != confPkg.Types {
				t.Error("squat's confusables import is a different *types.Package than the loaded one; the type universes are split")
			}
		}
	}
	if !found {
		t.Fatal("squat does not import confusables; the fixture premise broke")
	}
}

// TestLoadChecksUnnamedModuleDeps: a module package the loaded ones import
// but the patterns do not name is type-checked by the loader too (and not
// returned), so it shares the loaded packages instead of importing second
// copies through the source importer: squat imports domlm, and domlm must
// import the very simrand package the load returned.
func TestLoadChecksUnnamedModuleDeps(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("../squat", "../simrand")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		if p.Types.Name() == filepath.Base(p.Dir) {
			byPath[p.ImportPath] = p
		}
	}
	squatPkg, simPkg := byPath[l.Module+"/internal/squat"], byPath[l.Module+"/internal/simrand"]
	if squatPkg == nil || simPkg == nil || len(byPath) != 2 {
		t.Fatalf("loaded %v, want exactly squat and simrand", byPath)
	}
	for _, imp := range squatPkg.Types.Imports() {
		if imp.Path() != l.Module+"/internal/domlm" {
			continue
		}
		for _, dep := range imp.Imports() {
			if dep.Path() == simPkg.ImportPath {
				if dep != simPkg.Types {
					t.Error("domlm imports a different simrand *types.Package than the loaded one")
				}
				return
			}
		}
	}
	t.Fatal("squat → domlm → simrand import chain not found; the fixture premise broke")
}
