// Package analysis is squatvet's static-analysis engine: a small
// package-loading driver built on stdlib go/parser + go/ast + go/types
// (source importer, no x/tools dependency) and the analyzers that encode
// this repository's correctness conventions as machine-checked invariants.
//
// The reproduction's guarantees are structural: byte-identical
// serial/parallel/delta scan equivalence requires that no scan-path code
// reads the wall clock or unseeded randomness (PR 2/4), the paper-table
// mapping in DESIGN.md requires stable literal `pkg.name` metric
// identifiers (PR 1), and the chaos suites require that every outbound
// connection flows through the dnsx/faultx transport seam (PR 3).
// One stray time.Now() or raw net.Dial silently breaks golden tests or
// chaos counter snapshots; as Marchal et al. argue for phishing
// classifiers themselves, guarantees must come from the pipeline's
// construction, not from spot checks. squatvet is the construction-time
// checker: it runs in `make lint` (and therefore `make verify`, `make
// race` and `make chaos`), and a committed baseline file lets
// intentionally exempt findings be burned down incrementally.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"squatphi/internal/analysis/callgraph"
)

// Diagnostic is one finding: an analyzer, a position, and a message. Path
// is slash-separated and relative to the loader root (the module root),
// so diagnostics — and the baseline entries derived from them — are
// stable across machines.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	Path     string `json:"path"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Path, d.Line, d.Col, d.Analyzer, d.Message)
}

// Key identifies a diagnostic for baseline matching: analyzer, file and
// message, but not line/column, so unrelated edits that shift lines do
// not invalidate the baseline.
func (d Diagnostic) Key() string {
	return d.Analyzer + "\t" + d.Path + "\t" + d.Message
}

// Analyzer is one named invariant check run over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics, baseline
	// entries and the driver's -list output.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// guards and where that invariant comes from.
	Doc string
	// NeedsCallGraph marks analyzers that consult Pass.Graph. The driver
	// builds the whole-load call graph once, before any such analyzer
	// runs.
	NeedsCallGraph bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer   *Analyzer
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	ImportPath string
	// Graph is the whole-load call graph; non-nil only for analyzers
	// that declare NeedsCallGraph.
	Graph *callgraph.Graph

	root   string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	path := position.Filename
	if rel, err := filepath.Rel(p.root, path); err == nil && !strings.HasPrefix(rel, "..") {
		path = rel
	}
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Path:     filepath.ToSlash(path),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// All returns every analyzer squatvet ships, in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, MetricName, Transport, RetryConv, LockCheck,
		HotPath, LifecycleLeak, ErrFlow}
}

// ByName resolves a comma-separated analyzer list ("" selects all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a := byName[strings.TrimSpace(n)]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", strings.TrimSpace(n))
		}
		out = append(out, a)
	}
	return out, nil
}

// Timing is one per-analyzer wall-time entry from Run. The synthetic
// "callgraph" entry reports the one-time graph construction.
type Timing struct {
	Name     string
	Duration time.Duration
}

// Run executes the given analyzers over the loaded packages and returns
// the findings, sorted by position then analyzer name, and per-analyzer
// wall times in analyzer order. When any analyzer declares
// NeedsCallGraph the whole-load call graph is built once, up front, and
// handed to those analyzers through the pass.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing, error) {
	var timings []Timing
	var graph *callgraph.Graph
	needsGraph := false
	for _, a := range analyzers {
		needsGraph = needsGraph || a.NeedsCallGraph
	}
	if needsGraph && len(pkgs) > 0 {
		start := time.Now()
		var units []*callgraph.Unit
		for _, pkg := range pkgs {
			units = append(units, &callgraph.Unit{
				ImportPath: pkg.ImportPath,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
			})
		}
		graph = callgraph.Build(pkgs[0].loader.fset, units)
		timings = append(timings, Timing{Name: "callgraph", Duration: time.Since(start)})
	}
	var diags []Diagnostic
	elapsed := make(map[string]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.loader.fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				ImportPath: pkg.ImportPath,
				root:       pkg.loader.Root,
				report:     func(d Diagnostic) { diags = append(diags, d) },
			}
			if a.NeedsCallGraph {
				pass.Graph = graph
			}
			start := time.Now()
			err := a.Run(pass)
			elapsed[a.Name] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	for _, a := range analyzers {
		timings = append(timings, Timing{Name: a.Name, Duration: elapsed[a.Name]})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Path != b.Path {
			return a.Path < b.Path
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
	return diags, timings, nil
}

// RenderText writes diagnostics one per line in the conventional
// file:line:col form. Output is a pure function of the (sorted) input,
// so it is byte-identical at any loader worker count.
func RenderText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// RenderJSON writes diagnostics as an indented JSON array (never null,
// so consumers can range over the result unconditionally).
func RenderJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// pathHasInternal reports whether the import path contains the segment
// pair "internal/<name>" — the scoping rule shared by analyzers, written
// so fixture trees under testdata/ (whose import paths embed a mirrored
// internal/<name> suffix) scope identically to the real packages.
func pathHasInternal(importPath, name string) bool {
	segs := strings.Split(importPath, "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] == "internal" && segs[i+1] == name {
			return true
		}
	}
	return false
}

// pathHasSegment reports whether the import path contains seg as a whole
// path segment (used to scope cmd/* binaries, including fixture trees
// whose import paths embed a mirrored cmd/ segment).
func pathHasSegment(importPath, seg string) bool {
	for _, s := range strings.Split(importPath, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// usedPackage resolves the package an identifier refers to (the X of a
// qualified selector like net.Dial), or "" when it is not a package name.
func usedPackage(info *types.Info, id *ast.Ident) string {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// qualifiedSel decomposes n as a package-qualified selector pkg.Name
// and returns the package path and selected name.
func qualifiedSel(info *types.Info, n ast.Node) (pkgPath, name string, sel *ast.SelectorExpr, ok bool) {
	s, isSel := n.(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	id, isIdent := s.X.(*ast.Ident)
	if !isIdent {
		return "", "", nil, false
	}
	path := usedPackage(info, id)
	if path == "" {
		return "", "", nil, false
	}
	return path, s.Sel.Name, s, true
}
