package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
)

// metricNameRE is the repo's metric-identifier grammar: two or more
// lowercase dotted segments of [a-z0-9_], e.g. "crawler.fetch.retries" or
// "dnsx.probe.rtt_ms". DESIGN.md §3 maps these identifiers to paper
// tables, so they must be grep-able literals with stable spelling. Event
// names (log messages) follow the same grammar.
var metricNameRE = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)+$`)

// nameSites are the receivers whose calls carry a metric or event name:
// each method maps to the index of its name argument.
var nameSites = []struct {
	kind, recv string // "metric"/"event"; the receiver as findings name it
	is         func(types.Type) bool
	methods    map[string]int
}{
	{"metric", "obs.Registry", isObsRegistry,
		map[string]int{"Counter": 0, "Gauge": 0, "Histogram": 0, "RegisterFunc": 0}},
	{"event", "slog.Logger", isSlogLogger,
		map[string]int{"Debug": 0, "Info": 0, "Warn": 0, "Error": 0, "Log": 2}},
}

// MetricName enforces the PR 1 metric-identifier convention: every
// counter/gauge/histogram/value registered with obs.Registry, and every
// event written to a slog.Logger, gets a constant `pkg.name` lowercase
// dotted identifier.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc: "require every obs.Registry metric registration (Counter, Gauge, " +
		"Histogram, RegisterFunc) and every slog.Logger event (Debug, Info, " +
		"Warn, Error, Log) to use a constant lowercase.dotted name, so the " +
		"DESIGN.md metric and event catalogues stay grep-able and stable",
	Run: runMetricName,
}

func runMetricName(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := pass.Info.Selections[sel]
			if selection == nil {
				return true
			}
			for _, site := range nameSites {
				idx, ok := site.methods[sel.Sel.Name]
				if !ok || len(call.Args) <= idx || !site.is(selection.Recv()) {
					continue
				}
				if pass.InTestFile(call.Pos()) {
					// Tests may use throwaway names; the convention binds
					// the metrics and events production code ships.
					return true
				}
				arg := call.Args[idx]
				tv, ok := pass.Info.Types[arg]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					pass.Reportf(arg.Pos(), "%s name passed to %s.%s is not a constant string; %s identifiers must be stable literals", site.kind, site.recv, sel.Sel.Name, site.kind)
					return true
				}
				if name := constant.StringVal(tv.Value); !metricNameRE.MatchString(name) {
					pass.Reportf(arg.Pos(), "%s name %q is not lowercase.dotted (want at least two [a-z0-9_] segments joined by dots)", site.kind, name)
				}
			}
			return true
		})
	}
	return nil
}

// typeName returns the package path and name of the named type behind t
// or a pointer to it ("", "" for an unnamed type).
func typeName(t types.Type) (pkg, name string) {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// isObsRegistry reports whether t is (a pointer to) the
// squatphi/internal/obs Registry type.
func isObsRegistry(t types.Type) bool {
	pkg, name := typeName(t)
	return name == "Registry" && pathHasInternal(pkg, "obs")
}

// isSlogLogger reports whether t is (a pointer to) log/slog's Logger.
func isSlogLogger(t types.Type) bool {
	pkg, name := typeName(t)
	return name == "Logger" && pkg == "log/slog"
}
