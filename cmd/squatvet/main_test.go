package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCapture invokes run() with stdout/stderr redirected to temp files.
func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	code = run(args, outF, errF)
	ob, _ := os.ReadFile(outF.Name())
	eb, _ := os.ReadFile(errF.Name())
	return code, string(ob), string(eb)
}

func TestListAnalyzers(t *testing.T) {
	code, out, _ := runCapture(t, "-list")
	if code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
	for _, name := range []string{"determinism", "hotpath", "lifecycleleak", "errflow"} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("-list output missing %s", name)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 8 {
		t.Errorf("-list printed %d lines, want 8", lines)
	}
}

// TestAnalyzerSubsetStalenessScoped: running a single analyzer over one
// directory must not flag the other analyzers' baseline entries as
// stale.
func TestAnalyzerSubsetStalenessScoped(t *testing.T) {
	code, _, stderr := runCapture(t, "-analyzers", "errflow", ".")
	if code != 0 {
		t.Fatalf("run = %d, want 0; stderr:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "stale") {
		t.Errorf("subset run reported stale entries:\n%s", stderr)
	}
}

// assertBrokenExits2 runs each analyzer set over the broken fixture
// package and wants exit 2 with an error naming the package.
func assertBrokenExits2(t *testing.T, sets ...string) {
	t.Helper()
	for _, names := range sets {
		code, _, stderr := runCapture(t, "-baseline", "", "-analyzers", names,
			filepath.Join("..", "..", "internal", "analysis", "testdata", "analysis", "broken", "brokenpkg"))
		if code != 2 {
			t.Errorf("run(-analyzers %q, broken pkg) = %d, want 2; stderr:\n%s", names, code, stderr)
		}
		if !strings.Contains(stderr, "brokenpkg") {
			t.Errorf("-analyzers %q: error does not name the package:\n%s", names, stderr)
		}
	}
}

// TestBrokenPackageExits2: a package that fails to type-check ends the
// run with exit 2 and an error naming it, with every analyzer or only
// intraprocedural ones.
func TestBrokenPackageExits2(t *testing.T) {
	assertBrokenExits2(t, "", "determinism")
}

// TestBrokenPackageWithOnlyCallGraphAnalyzers: a run asking only for the
// call-graph analyzers must not go green on a broken package either.
func TestBrokenPackageWithOnlyCallGraphAnalyzers(t *testing.T) {
	assertBrokenExits2(t, "hotpath", "hotpath,lifecycleleak")
}

// TestWriteBaselineRoundTrip: -write-baseline records every current
// finding, so a plain run against the file it wrote reports none fresh
// and none stale.
func TestWriteBaselineRoundTrip(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := filepath.Rel(root, filepath.Join(t.TempDir(), "squatvet.baseline"))
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join("..", "..", "internal", "analysis", "testdata", "analysis", "src", "hotpath")
	code, _, stderr := runCapture(t, "-baseline", baseline, "-write-baseline", fixture)
	if code != 0 || !strings.Contains(stderr, "wrote 10 finding(s)") {
		t.Fatalf("run(-write-baseline) = %d, want 0 and 10 findings written; stderr:\n%s", code, stderr)
	}
	code, stdout, stderr := runCapture(t, "-baseline", baseline, fixture)
	if code != 0 || stdout != "" || strings.Contains(stderr, "stale") {
		t.Fatalf("run against the written baseline = %d, want 0 with no fresh or stale findings; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
