package analysis

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the squatvet JSON golden file")

// sharedLoader hands every test the same loader so the source importer's
// dependency cache is shared (type-checking net/http once, not per test).
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return NewLoader(root)
})

// loadFixture loads one or more fixture directories under
// testdata/analysis/src with the shared loader.
func loadFixture(t *testing.T, dirs ...string) []*Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	for _, d := range dirs {
		patterns = append(patterns, filepath.Join("testdata", "analysis", "src", d))
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// wantMarkers scans fixture files for //want:<analyzer> markers and
// returns the expected diagnostic multiset keyed "relpath:line".
func wantMarkers(t *testing.T, analyzer string, dirs ...string) map[string]int {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	marker := "//want:" + analyzer
	want := map[string]int{}
	for _, dir := range dirs {
		full := filepath.Join("testdata", "analysis", "src", dir)
		entries, err := os.ReadDir(full)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(full, e.Name())
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			abs, _ := filepath.Abs(path)
			rel, err := filepath.Rel(l.Root, abs)
			if err != nil {
				t.Fatal(err)
			}
			scanner := bufio.NewScanner(f)
			for line := 1; scanner.Scan(); line++ {
				n := strings.Count(scanner.Text(), marker)
				if n > 0 {
					want[fmt.Sprintf("%s:%d", filepath.ToSlash(rel), line)] += n
				}
			}
			if err := scanner.Err(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
	return want
}

// runFixture runs exactly one analyzer over fixture dirs and compares
// the (file, line) multiset of its findings against the //want markers.
func runFixture(t *testing.T, a *Analyzer, dirs ...string) []Diagnostic {
	t.Helper()
	pkgs := loadFixture(t, dirs...)
	diags, _, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, d := range diags {
		got[fmt.Sprintf("%s:%d", d.Path, d.Line)]++
	}
	want := wantMarkers(t, a.Name, dirs...)
	for key, n := range want {
		if got[key] != n {
			t.Errorf("%s: want %d finding(s) at %s, got %d", a.Name, n, key, got[key])
		}
	}
	for key, n := range got {
		if want[key] == 0 {
			t.Errorf("%s: unexpected finding(s) at %s (%d)", a.Name, key, n)
		}
	}
	return diags
}

func TestDeterminismFixture(t *testing.T) {
	diags := runFixture(t, Determinism, "internal/core", "internal/domlm", "unscoped")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/internal/core/clock.go:14:11",
		"wall-clock read time.Now in deterministic scan path; time metric observations must go through obs.Stopwatch")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/internal/core/clock.go:15:2",
		"time.Sleep in deterministic scan path; synchronize with channels or sync primitives instead of sleeping")
}

func TestMetricNameFixture(t *testing.T) {
	diags := runFixture(t, MetricName, "metricuser")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/metricuser/metrics.go:15:14",
		`metric name "BadName.Caps" is not lowercase.dotted (want at least two [a-z0-9_] segments joined by dots)`)
}

func TestEventNameFixture(t *testing.T) {
	diags := runFixture(t, MetricName, "eventuser")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/eventuser/events.go:19:11",
		`event name "BadCaps.Event" is not lowercase.dotted (want at least two [a-z0-9_] segments joined by dots)`)
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/eventuser/events.go:21:11",
		"event name passed to slog.Logger.Info is not a constant string; event identifiers must be stable literals")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/eventuser/events.go:23:32",
		"event name passed to slog.Logger.Log is not a constant string; event identifiers must be stable literals")
}

func TestTransportFixture(t *testing.T) {
	diags := runFixture(t, Transport, "fetcher", "internal/dnsx", "internal/retry", "listener", "internal/obs")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/fetcher/fetch.go:15:9",
		"direct net.Dial outside the transport layer; open connections through the dnsx/faultx wrappers (e.g. faultx.DialTimeout or a component Dial hook)")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/internal/retry/retry.go:11:9",
		"direct net.Dial outside the transport layer; open connections through the dnsx/faultx wrappers (e.g. faultx.DialTimeout or a component Dial hook)")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/listener/listener.go:15:9",
		"listening socket net.Listen outside the serving layer; bind through obs.Serve so every repo listener carries the hardened timeout and graceful-drain policy")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/listener/listener.go:19:10",
		"direct net/http.Server outside the serving layer; build servers with obs.NewServer/obs.Serve so header/read/idle timeouts and graceful shutdown apply")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/listener/listener.go:21:6",
		"direct net/http.ListenAndServe outside the serving layer; build servers with obs.NewServer/obs.Serve so header/read/idle timeouts and graceful shutdown apply")
}

func TestRetryConvFixture(t *testing.T) {
	diags := runFixture(t, RetryConv, "rclient")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/rclient/rclient.go:26:31",
		"retry.Resolve default 0 is not positive; a component default of <= 0 makes the 0=default convention unsatisfiable")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/rclient/rclient.go:27:31",
		"retry.Resolve default -1 is not positive; a component default of <= 0 makes the 0=default convention unsatisfiable")
}

func TestLockCheckFixture(t *testing.T) {
	diags := runFixture(t, LockCheck, "locker")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/locker/locker.go:22:2",
		"b.mu acquired with no matching Unlock (deferred or explicit) later in the same function")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/locker/locker.go:16:17",
		"by-value parameter type carries sync.Mutex; a lock must not be copied, pass a pointer")
}

// TestHotAllocFixture: hotpath checks the allocation patterns in a
// //squat:hot root's own body, not only in the callees it reaches.
func TestHotAllocFixture(t *testing.T) {
	diags := runFixture(t, HotPath, "hotpath")
	// The root's own body: every allocating form except the map-index
	// and comparison conversions.
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/hotpath/hotpath.go:25:9",
		"allocating conversion string([]byte) in //squat:hot root hotpath.classify; push it behind a //squat:cold boundary or use the byte helpers")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/hotpath/hotpath.go:26:9",
		"allocating conversion []byte(string) in //squat:hot root hotpath.classify; push it behind a //squat:cold boundary or use the byte helpers")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/hotpath/hotpath.go:27:2",
		"fmt.Sprintf in //squat:hot root hotpath.classify, allocates on every call; format off the hot path")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/hotpath/hotpath.go:28:11",
		"strings.Split in //squat:hot root hotpath.classify, allocates its result; use the append-style byte helpers")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/hotpath/hotpath.go:29:9",
		"strings.ToLower in //squat:hot root hotpath.classify, allocates its result; use the append-style byte helpers")
}

func TestHotPathFixture(t *testing.T) {
	diags := runFixture(t, HotPath, "hotroot", "hotpath")
	// The allocating helper sits two frames below the //squat:hot root
	// (scan → helperA → helperB), where the root's body is clean.
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/hotroot/hotroot.go:38:6",
		"hotroot.helperB is reachable from //squat:hot root hotroot.helperA but carries neither //squat:hot nor //squat:cold; annotate it so the hot-path contract stays explicit")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/hotroot/hotroot.go:39:7",
		"allocating conversion string([]byte) in hotroot.helperB, reachable from //squat:hot root hotroot.helperA; push it behind a //squat:cold boundary or use the byte helpers")
	// Interface dispatch reaches the concrete method, whose lock is not
	// held at the root.
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/hotroot/hotroot.go:60:2",
		"sync Lock acquired in hotroot.worker.do, reachable from //squat:hot root hotroot.scan and not held at the root; per-record locking breaks the scan hot loop, move it behind a //squat:cold boundary")
	// The address-taken function value resolves by signature, and I/O in
	// it is a finding.
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/hotroot/hotroot.go:72:15",
		"os.ReadFile called in hotroot.logAndCount, reachable from //squat:hot root hotroot.scan; I/O and logging do not belong on the per-record scan path, move them behind a //squat:cold boundary")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/hotpath/hotpath.go:37:6",
		"hotpath.label is reachable from //squat:hot root hotpath.classify but carries neither //squat:hot nor //squat:cold; annotate it so the hot-path contract stays explicit")
}

// TestHotPathRealRepo is the transitive proof of the zero-allocation
// contract: loading the real matcher and everything its hot
// roots can reach, the MatchBytes miss path — and every other
// //squat:hot root in these packages — reaches no allocating, locking or
// I/O-performing callee outside a //squat:cold boundary.
func TestHotPathRealRepo(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("../squat", "../confusables", "../punycode", "../domlm", "../obs", "../obs/trace")
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := Run(pkgs, []*Analyzer{HotPath})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("hot path not clean: %s", d.String())
	}
}

func TestLifecycleLeakFixture(t *testing.T) {
	diags := runFixture(t, LifecycleLeak, "internal/serve", "cmd/leakcmd")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/internal/serve/leak.go:16:2",
		"goroutine is not join-able (no sync.WaitGroup signal, <-ctx.Done() wait or channel range in its body); tie it to the component lifecycle so shutdown can drain it")
	// A named spawn is resolved through the call graph to its body.
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/internal/serve/leak.go:62:2",
		"goroutine leakyWorker is not join-able (no sync.WaitGroup signal, <-ctx.Done() wait or channel range in its body); tie it to the component lifecycle so shutdown can drain it")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/internal/serve/leak.go:68:2",
		"goroutine calls through a function value, which cannot be proven join-able; spawn a named worker tied to the component lifecycle so shutdown can drain it")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/internal/serve/leak.go:73:2",
		"goroutine body Gosched is outside the analyzed packages; wrap the spawn in a join-able worker so shutdown can drain it")
}

func TestErrFlowFixture(t *testing.T) {
	diags := runFixture(t, ErrFlow, "internal/fsx")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/internal/fsx/errs.go:13:2",
		"statement discards the error from os.Remove; handle it, return it, or route it through a sanctioned sink (core.degraded counter, log, explicit _ = with justification upstream)")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/internal/fsx/errs.go:23:5",
		"error result of os.Open assigned to _; handle it, return it, or route it through a sanctioned sink")
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/internal/fsx/errs.go:29:8",
		"deferred call discards the error from os.Remove; handle it, return it, or route it through a sanctioned sink (core.degraded counter, log, explicit _ = with justification upstream)")
	// The fmt exemption is Fprint-scoped: Sscanf's parse error is a
	// finding, Fprintf to an in-process writer is not.
	assertPosition(t, diags, "internal/analysis/testdata/analysis/src/internal/fsx/errs.go:53:2",
		"statement discards the error from fmt.Sscanf; handle it, return it, or route it through a sanctioned sink (core.degraded counter, log, explicit _ = with justification upstream)")
	for _, d := range diags {
		if strings.Contains(d.Message, "Fprintf") {
			t.Errorf("fmt.Fprintf must stay a sanctioned sink, got: %s", d.String())
		}
	}
}

// workerFixtureDirs keeps the determinism test off the heavyweight
// net/http-importing fixtures: these dirs exercise every analyzer that
// has cross-package state while importing only small stdlib packages.
var workerFixtureDirs = []string{
	"hotroot", "hotpath", "internal/serve", "internal/fsx", "cmd/leakcmd", "constrained", "locker",
}

// TestWorkersByteIdentical runs the full pipeline — load, call graph,
// every analyzer, render — at 1 and 8 workers with fresh loaders and
// requires byte-identical text and JSON output.
func TestWorkersByteIdentical(t *testing.T) {
	render := func(workers int) (string, string) {
		t.Helper()
		root, err := FindModuleRoot(".")
		if err != nil {
			t.Fatal(err)
		}
		l, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		l.Workers = workers
		var patterns []string
		for _, d := range workerFixtureDirs {
			patterns = append(patterns, filepath.Join("testdata", "analysis", "src", d))
		}
		pkgs, err := l.Load(patterns...)
		if err != nil {
			t.Fatal(err)
		}
		diags, _, err := Run(pkgs, All())
		if err != nil {
			t.Fatal(err)
		}
		var text, js strings.Builder
		if err := RenderText(&text, diags); err != nil {
			t.Fatal(err)
		}
		if err := RenderJSON(&js, diags); err != nil {
			t.Fatal(err)
		}
		return text.String(), js.String()
	}
	text1, js1 := render(1)
	text8, js8 := render(8)
	if text1 != text8 {
		t.Errorf("text output differs between 1 and 8 workers:\n-- 1:\n%s-- 8:\n%s", text1, text8)
	}
	if js1 != js8 {
		t.Errorf("JSON output differs between 1 and 8 workers")
	}
	if text1 == "" {
		t.Error("determinism test rendered no findings; fixture set is too weak")
	}
}

// assertPosition requires a diagnostic at exactly path:line:col with the
// given message.
func assertPosition(t *testing.T, diags []Diagnostic, pos, message string) {
	t.Helper()
	for _, d := range diags {
		if fmt.Sprintf("%s:%d:%d", d.Path, d.Line, d.Col) == pos && d.Message == message {
			return
		}
	}
	t.Errorf("no diagnostic at %s with message %q; got:", pos, message)
	for _, d := range diags {
		t.Errorf("  %s", d.String())
	}
}

// TestJSONGolden pins the full-suite JSON output over the fixture tree
// byte-for-byte (regenerate with -update).
func TestJSONGolden(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(filepath.Join("testdata", "analysis", "src") + "/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(diags); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_squatvet.json")
	if *update {
		if err := os.WriteFile(golden, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d findings)", golden, len(diags))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/analysis -run TestJSONGolden -update` to create it)", err)
	}
	if buf.String() != string(want) {
		t.Errorf("JSON output differs from %s (regenerate with -update):\ngot:\n%s", golden, buf.String())
	}
}

func TestExpandSkipsTestdataAndHidden(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.expand([]string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || filepath.Base(dirs[0]) != "analysis" {
		t.Fatalf("expand(.) = %v, want just the analysis dir", dirs)
	}
	dirs, err = l.expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("expand(./...) included testdata dir %s", d)
		}
	}
	// Explicitly naming a testdata subtree must be honoured.
	dirs, err = l.expand([]string{"testdata/analysis/src/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 6 {
		t.Errorf("explicit testdata expansion found only %v", dirs)
	}
	sort.Strings(dirs)
	if !sort.StringsAreSorted(dirs) {
		t.Error("expand output not sorted")
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 8 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 8", len(all), err)
	}
	sub, err := ByName("determinism, lockcheck")
	if err != nil || len(sub) != 2 || sub[0] != Determinism || sub[1] != LockCheck {
		t.Fatalf("ByName subset wrong: %v, %v", sub, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
}

func TestPathHasInternal(t *testing.T) {
	cases := []struct {
		path, name string
		want       bool
	}{
		{"squatphi/internal/core", "core", true},
		{"squatphi/internal/analysis/testdata/analysis/src/internal/core", "core", true},
		{"squatphi/internal/corex", "core", false},
		{"squatphi/core", "core", false},
		{"internal/core", "core", true},
		{"squatphi/internal", "internal", false},
	}
	for _, c := range cases {
		if got := pathHasInternal(c.path, c.name); got != c.want {
			t.Errorf("pathHasInternal(%q, %q) = %v, want %v", c.path, c.name, got, c.want)
		}
	}
}

func TestDiagnosticStringAndKey(t *testing.T) {
	d := Diagnostic{Analyzer: "determinism", Path: "internal/core/x.go", Line: 3, Col: 7, Message: "m"}
	if got := d.String(); got != "internal/core/x.go:3:7: [determinism] m" {
		t.Errorf("String() = %q", got)
	}
	if got := d.Key(); got != "determinism\tinternal/core/x.go\tm" {
		t.Errorf("Key() = %q", got)
	}
}
