// Command squatvet runs the repository's static-analysis suite
// (internal/analysis): stdlib-only go/parser + go/types checks that
// enforce the determinism, metric-naming, transport, retry-convention,
// lock-hygiene, hot-path allocation, goroutine-lifecycle and error-flow
// invariants the correctness story rests on. Analyzers that declare
// NeedsCallGraph (hotpath, lifecycleleak) additionally see a whole-load
// call graph built once over every analyzed package, so their rules hold
// transitively across package boundaries.
//
// Usage:
//
//	squatvet [flags] [packages...]
//
// Packages are directories, optionally suffixed /... for subtrees
// (default ./...). Exit status is 0 when every finding is covered by the
// baseline, 1 when fresh findings exist, 2 on load/usage errors.
//
// Loading and checking run on GOMAXPROCS workers; output is
// byte-identical at any worker count. A package that fails to parse or
// type-check (it fails go build and go vet too) ends the run with exit 2
// and an error naming it: the call graph needs every package.
//
// The baseline workflow: `squatvet ./...` fails on any finding not in
// the committed squatvet.baseline at the module root. Intentional
// exemptions are added there (one justification comment per entry) and
// burned down over time; `-write-baseline` regenerates the file from the
// current findings so the diff can be reviewed. Stale-entry warnings are
// scoped to the packages and analyzers that actually ran.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"squatphi/internal/analysis"
	"squatphi/internal/fsx"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("squatvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut       = fs.Bool("json", false, "emit fresh findings as a JSON array instead of text")
		baselinePath  = fs.String("baseline", "squatvet.baseline", "baseline file, relative to the module root (empty disables)")
		writeBaseline = fs.Bool("write-baseline", false, "write the current findings to the baseline file and exit")
		list          = fs.Bool("list", false, "list analyzers and exit")
		names         = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		noTests       = fs.Bool("no-tests", false, "skip _test.go files")
		showTime      = fs.Bool("time", false, "print per-analyzer wall time and package count to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(stderr, "squatvet:", err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "squatvet:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "squatvet:", err)
		return 2
	}
	loader.Tests = !*noTests
	loader.Workers = runtime.GOMAXPROCS(0)

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "squatvet:", err)
		return 2
	}
	diags, timings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "squatvet:", err)
		return 2
	}
	if *showTime {
		fmt.Fprintf(stderr, "squatvet: %d package(s), %d worker(s)\n", len(pkgs), loader.Workers)
		for _, t := range timings {
			fmt.Fprintf(stderr, "squatvet:   %-14s %s\n", t.Name, t.Duration.Round(10*time.Microsecond))
		}
	}

	if *writeBaseline {
		if *baselinePath == "" {
			fmt.Fprintln(stderr, "squatvet: -write-baseline requires -baseline")
			return 2
		}
		write := func(w io.Writer) error { return analysis.WriteBaseline(w, diags) }
		if err := fsx.WriteFile(filepath.Join(root, *baselinePath), write); err != nil {
			fmt.Fprintln(stderr, "squatvet:", err)
			return 2
		}
		fmt.Fprintf(stderr, "squatvet: wrote %d finding(s) to %s — review and justify each entry\n", len(diags), *baselinePath)
		return 0
	}

	fresh := diags
	if *baselinePath != "" {
		baseline, err := analysis.LoadBaselineFile(filepath.Join(root, *baselinePath))
		if err != nil {
			fmt.Fprintln(stderr, "squatvet:", err)
			return 2
		}
		// Stale entries are only meaningful for files that were actually
		// analyzed this run by an analyzer that actually ran; a partial
		// invocation (path subset or -analyzers subset) must not flag
		// entries it never looked for.
		analyzedDirs := map[string]bool{}
		for _, p := range pkgs {
			if rel, err := filepath.Rel(root, p.Dir); err == nil {
				analyzedDirs[filepath.ToSlash(rel)] = true
			}
		}
		ranAnalyzer := map[string]bool{}
		for _, a := range analyzers {
			ranAnalyzer[a.Name] = true
		}
		inScope := func(analyzer, path string) bool {
			return ranAnalyzer[analyzer] && analyzedDirs[filepath.ToSlash(filepath.Dir(path))]
		}
		var stale []string
		fresh, stale = baseline.Filter(diags, inScope)
		for _, s := range stale {
			fmt.Fprintf(stderr, "squatvet: stale baseline entry (fixed? remove it): %s\n", s)
		}
	}

	if *jsonOut {
		if err := analysis.RenderJSON(stdout, fresh); err != nil {
			fmt.Fprintln(stderr, "squatvet:", err)
			return 2
		}
	} else if err := analysis.RenderText(stdout, fresh); err != nil {
		fmt.Fprintln(stderr, "squatvet:", err)
		return 2
	}
	if len(fresh) > 0 {
		fmt.Fprintf(stderr, "squatvet: %d finding(s) not covered by baseline\n", len(fresh))
		return 1
	}
	return 0
}
