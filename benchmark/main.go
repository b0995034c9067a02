// Command benchmark is SquatPhi's one benchmark: five named workloads,
// each generated from a seed, measured for a fixed time with tracing off,
// checked against an oracle, and reported as the end-to-end metrics of
// BENCHMARK.json. A second, traced run (-trace 1) times the calls into
// each layer from these files and reports the per-layer metrics instead.
// See README.md for what every workload and metric means.
//
// Usage (from the repository root, or from this directory):
//
//	bash benchmark/run.sh --workload scan-zone --seed 1 --seconds 10 --trace 0
//	cd benchmark && go run . -workload serve-mixed -trace 1 -out runs.jsonl
//	cd benchmark && go run . -compare a.jsonl b.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets a workload up from scratch;
// setup_s is the median, so one slow page-cache flush or fork does not
// decide it.
const setupReps = 3

// workload is one entry of workloads. The driver calls setup (several
// times, each followed by teardown except the last), then measure, then —
// on a traced run — probe.
type workload interface {
	// setup generates every input from rc.seed and brings the system
	// under test up. It must leave nothing behind that teardown does not
	// release.
	setup(rc *runCtx) error
	teardown(rc *runCtx)
	// describe reports the SHA-256 of the generated inputs and the frozen
	// sizes, for the result file's environment block.
	describe() (inputSHA string, sizes map[string]int64)
	// fingerprints reports the matcher and model the workload ran with.
	fingerprints() (matcher, model uint64)
	// measure runs the measured phase for about d and checks every output
	// against the workload's oracle.
	measure(rc *runCtx, d time.Duration) (*measured, error)
	// probe times each layer the workload exercises in isolation and adds
	// the per-layer metrics to out. base is the untraced half of the run.
	probe(rc *runCtx, base *measured, out map[string]float64) error
}

// measured is the outcome of one measured phase.
type measured struct {
	// throughput is work units completed per second (see README.md for
	// the unit of each workload).
	throughput float64
	// throughputN is how many samples (passes, cycles, windows) the
	// throughput is the median or the sum of.
	throughputN int
	// opUS holds one latency per operation, in microseconds.
	opUS []float64
	// attempted and failed count operations and oracle checks.
	attempted, failed int64
	// counts are exact: a seed and a run length determine them, so two
	// runs must agree on every one (-compare checks). tallies depend on
	// how much work fit into the phase and may differ.
	counts, tallies map[string]int64
	// layer holds per-layer values the measured phase itself yields.
	layer map[string]float64
	// rssMB is the peak RSS of the process under test when that is not
	// this process (serve-mixed: squatd); 0 means "read our own".
	rssMB float64
}

// runCtx is what a workload needs from the driver.
type runCtx struct {
	ctx  context.Context
	seed uint64
	// phaseLen is the d every measure call of this run will be given, so
	// set-up can generate a schedule of that length.
	phaseLen time.Duration
	// workers is GOMAXPROCS: the size of every worker pool and the number
	// of HTTP connections.
	workers int
	root    string // repository root (holds cmd/squatd)
	dir     string // scratch directory of this run, removed on exit
	tr      *tracer
	parent  *span // the phase span new layer spans hang under
}

// timed runs fn, records it as a span named name when the run is traced,
// and returns its wall time.
func (rc *runCtx) timed(name string, fn func()) time.Duration {
	sp := rc.tr.start(rc.parent, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.end()
	return d
}

// phase opens a phase span ("bench.setup", ...) and makes it the parent of
// the layer spans recorded until the returned func is called.
func (rc *runCtx) phase(name string) func() {
	prev := rc.parent
	sp := rc.tr.start(prev, name)
	rc.parent = sp
	return func() {
		sp.end()
		rc.parent = prev
	}
}

// metricValue is one reported metric with its sample count and spread.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// runRecord is one line of the -out file.
type runRecord struct {
	Env         envBlock               `json:"env"`
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	InputSHA256 string                 `json:"input_sha256"`
	Sizes       map[string]int64       `json:"sizes"`
	Correct     bool                   `json:"correct"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	ErrorRate   float64                `json:"error_rate"`
	Metrics     map[string]metricValue `json:"metrics"`
	Counts      map[string]int64       `json:"counts,omitempty"`
	Tallies     map[string]int64       `json:"tallies,omitempty"`
	LayerSelfMS map[string]float64     `json:"layer_self_ms,omitempty"`
	SpanFile    string                 `json:"span_file,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all five, in order)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of the end-to-end metrics")
	out := fs.String("out", "", "append one JSON record per workload run to this file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	// Every worker pool and the HTTP connection count are GOMAXPROCS, so
	// the one way to oversubscribe is a GOMAXPROCS set above the cores
	// there are. Such a run measures the scheduler — the defect both
	// committed BENCH_*.json files carry — and is refused.
	workers := runtime.GOMAXPROCS(0)
	if cpus := runtime.NumCPU(); workers > cpus {
		fmt.Fprintf(stderr, "benchmark: GOMAXPROCS %d exceeds the %d CPUs available; refusing to record an oversubscribed run\n", workers, cpus)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workloadSpec{w}
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	dir, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	// SIGINT/SIGTERM cancel the context; workloads notice between
	// operations, tear down (reaping squatd) and the deferred RemoveAll
	// clears the scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	code := 0
	for _, spec := range selected {
		rc := &runCtx{ctx: ctx, seed: *seed, workers: workers, root: root, dir: dir}
		rec, err := runWorkload(rc, spec, *seconds, *trace == 1, filepath.Join(build, "spans"))
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", spec.Name, err)
			if ctx.Err() != nil {
				return 130
			}
			return 1
		}
		printTable(stdout, rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		printResultLine(stdout, rec)
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload drives one workload through set-up, the measured phase and,
// on a traced run, the layer probes.
func runWorkload(rc *runCtx, spec workloadSpec, seconds float64, traced bool, spanDir string) (*runRecord, error) {
	w := spec.New()
	d := time.Duration(seconds * float64(time.Second))
	rc.phaseLen = d
	if traced {
		rc.tr = newTracer(spec.Name)
		rc.phaseLen = d / 2
	}
	endRun := rc.phase("bench." + spec.Name)
	if p, ok := w.(interface{ prepare(*runCtx) error }); ok {
		if err := p.prepare(rc); err != nil {
			return nil, err
		}
	}

	// Set-up, several times over; the last instance is the one measured.
	// A traced run sets up once: its set-up spans feed the layer metrics
	// and setup_s is not among them.
	reps := setupReps
	if traced {
		reps = 1
	}
	var setupS []float64
	for i := 0; i < reps; i++ {
		endSetup := rc.phase("bench.setup")
		t0 := time.Now()
		err := w.setup(rc)
		setupS = append(setupS, time.Since(t0).Seconds())
		endSetup()
		if err != nil {
			w.teardown(rc)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i < reps-1 {
			w.teardown(rc)
		}
	}
	defer w.teardown(rc)

	// Peak RSS is read over the measured phase only, so set-up garbage is
	// returned to the OS and the high-water mark reset first.
	runtime.GC()
	debug.FreeOSMemory()
	rssReset := resetPeakRSS()

	rec := &runRecord{
		Workload: spec.Name, Seed: rc.seed, Seconds: seconds, Trace: traced,
		Metrics: map[string]metricValue{},
	}
	var m *measured
	var err error
	if !traced {
		endMeasure := rc.phase("bench.measure")
		m, err = w.measure(rc, d)
		endMeasure()
		if err != nil {
			return nil, fmt.Errorf("measure: %w", err)
		}
		rss := m.rssMB
		if rss == 0 {
			rss = peakRSSMB(os.Getpid())
		}
		q1, q3 := quartiles(setupS)
		rec.Metrics["setup_s"] = metricValue{Value: median(setupS), Samples: len(setupS), Q1: q1, Q3: q3}
		rec.Metrics["throughput_per_s"] = metricValue{Value: m.throughput, Samples: m.throughputN}
		// The tail is printed beside the median but not gated: no tail
		// percentile of a 10 s phase reproduced within a bound (README.md).
		q1, q3 = quartiles(m.opUS)
		tail := highestTail(len(m.opUS))
		rec.Metrics["latency_p50_us"] = metricValue{
			Value: median(m.opUS), Samples: len(m.opUS), Q1: q1, Q3: q3,
			Note: fmt.Sprintf("highest percentile with >=10 samples beyond it: p%g = %.6g us, not gated", tail, percentile(m.opUS, tail)),
		}
		rec.Metrics["peak_rss_mb"] = metricValue{Value: rss, Note: fmt.Sprintf("high-water mark reset before the measured phase: %v", rssReset || m.rssMB != 0)}
		for _, ms := range endToEnd {
			mv, ok := rec.Metrics[ms.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %q is registered but not measured", ms.Name)
			}
			mv.Unit = ms.Unit
			rec.Metrics[ms.Name] = mv
		}
	} else {
		// Half the time untraced, half traced. The untraced half starts
		// from the same state every run, so it supplies the layer values
		// and exact counts; the traced half supplies the spans, and the
		// difference between the halves is the tracing overhead.
		rc.tr.setOff(true)
		m, err = w.measure(rc, d/2)
		rc.tr.setOff(false)
		if err != nil {
			return nil, fmt.Errorf("measure (untraced half): %w", err)
		}
		endMeasure := rc.phase("bench.measure")
		tracedHalf, err := w.measure(rc, d/2)
		endMeasure()
		if err != nil {
			return nil, fmt.Errorf("measure (traced half): %w", err)
		}
		layer := map[string]float64{}
		for k, v := range m.layer {
			layer[k] = v
		}
		if tracedHalf.throughput > 0 {
			layer["bench.trace_overhead_frac"] = m.throughput/tracedHalf.throughput - 1
		}
		endProbe := rc.phase("bench.probe")
		err = w.probe(rc, m, layer)
		endProbe()
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		m.attempted += tracedHalf.attempted
		m.failed += tracedHalf.failed
		for _, ms := range perLayer {
			rec.Metrics[ms.Name] = metricValue{Value: layer[ms.Name], Unit: ms.Unit}
		}
		for k := range layer {
			if _, ok := rec.Metrics[k]; !ok {
				return nil, fmt.Errorf("layer metric %q is not in the perLayer registry", k)
			}
		}
	}
	endRun()

	rec.Attempted, rec.Failed, rec.Counts, rec.Tallies = m.attempted, m.failed, m.counts, m.tallies
	rec.Correct = m.failed == 0 && m.attempted > 0
	if m.attempted > 0 {
		rec.ErrorRate = float64(m.failed) / float64(m.attempted)
	}
	rec.InputSHA256, rec.Sizes = w.describe()
	mfp, lfp := w.fingerprints()
	rec.Env = collectEnv(rc.root, rc.workers, mfp, lfp)
	if traced {
		rec.LayerSelfMS = rc.tr.layerSelfMS()
		rec.SpanFile = filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", spec.Name, rc.seed))
		if err := rc.tr.writeFile(rec.SpanFile); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return rec, nil
}

// printTable prints every metric of the record by name, with its unit,
// sample count and quartiles.
func printTable(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v correct=%v attempted=%d failed=%d error_rate=%g\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Correct, rec.Attempted, rec.Failed, rec.ErrorRate)
	fmt.Fprintf(w, "# env: cpus=%d gomaxprocs=%d workers=%d %s commit=%s dirty=%v matcher=%016x model=%016x input=%s\n",
		rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.Workers, rec.Env.GoVersion, rec.Env.Commit, rec.Env.Dirty,
		rec.Env.MatcherFingerprint, rec.Env.ModelFingerprint, rec.InputSHA256)
	fmt.Fprintf(w, "# sizes: %s\n", formatMap(rec.Sizes, "%d"))
	if len(rec.Counts) > 0 {
		fmt.Fprintf(w, "# counts (exact for the seed): %s\n", formatMap(rec.Counts, "%d"))
	}
	if len(rec.Tallies) > 0 {
		fmt.Fprintf(w, "# tallies: %s\n", formatMap(rec.Tallies, "%d"))
	}
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		mv := rec.Metrics[k]
		line := fmt.Sprintf("%-32s %16.6g %-8s", k, mv.Value, mv.Unit)
		if mv.Samples > 0 {
			line += fmt.Sprintf(" n=%d", mv.Samples)
		}
		if mv.Q1 != 0 || mv.Q3 != 0 {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g", mv.Q1, mv.Q3)
		}
		if mv.Note != "" {
			line += " (" + mv.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	if len(rec.LayerSelfMS) > 0 {
		fmt.Fprintf(w, "# layer self time (ms): %s\n", formatMap(rec.LayerSelfMS, "%.3f"))
		fmt.Fprintf(w, "# spans: %s\n", rec.SpanFile)
	}
}

// formatMap renders a map as "k=v k=v", keys sorted, values by verb.
func formatMap[V any](m map[string]V, verb string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s="+verb, k, m[k])
	}
	return strings.Join(parts, " ")
}

// printResultLine prints the one-line result the driver reads.
func printResultLine(w io.Writer, rec *runRecord) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]mv{}}
	for k, v := range rec.Metrics {
		line.Metrics[k] = mv{v.Value, v.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings cannot fail to marshal
	fmt.Fprintln(w, string(b))
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
