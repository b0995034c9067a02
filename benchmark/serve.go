package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"squatphi/internal/core"
	"squatphi/internal/dnsx"
	"squatphi/internal/obs"
	"squatphi/internal/serve"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// Frozen sizes and mix of serve-mixed.
const (
	serveGenRecords = 200_000 // squatd -gen
	serveOpenRate   = 4000.0  // phase A arrivals per second
	serveBulkSize   = 128     // domains per POST /verdicts
	serveUpdateSize = 8       // records per POST /update
	// serveOpenGrace is how long after the last due time phase A still
	// sends: a backlog that does not drain in it is a growing backlog.
	serveOpenGrace = 100 * time.Millisecond
	// serveClosedPool is how many requests each closed-loop connection
	// has prepared per second of phase B; a connection that outruns it
	// wraps around.
	serveClosedPool = 10_000
	zipfS           = 1.1
)

const (
	reqLookup = iota
	reqBulk
	reqUpdate
)

// request is one prepared HTTP request with the verdict bits its reply
// must carry.
type request struct {
	kind    uint8
	unknown bool     // a lookup of a domain the snapshot does not hold
	target  string   // path and query
	body    []byte   // POST body, nil for GET
	domains []string // what is asked about, for the in-process probes
	ips     [][4]byte
	expect  []bool // Matcher.Match of each domain, in order
}

// httpRequest builds the request against the server at base ("host:port").
func (q *request) httpRequest(ctx context.Context, base string) (*http.Request, error) {
	if q.body == nil {
		return http.NewRequestWithContext(ctx, http.MethodGet, "http://"+base+q.target, nil)
	}
	return http.NewRequestWithContext(ctx, http.MethodPost, "http://"+base+q.target, bytes.NewReader(q.body))
}

// mixer draws requests of the serve-mixed traffic mix.
type mixer struct {
	m       *squat.Matcher
	known   []string // snapshot domains that are not planted squats
	squats  []string // planted squats the snapshot holds
	zipf    *zipf
	matched map[string]bool // memo of Matcher.Match
}

func (mx *mixer) match(d string) bool {
	v, ok := mx.matched[d]
	if !ok {
		_, v = mx.m.Match(d)
		mx.matched[d] = v
	}
	return v
}

// lookupDomain draws one domain of the lookup mix: 70% known (zipf
// skewed), 15% planted squats, 15% unknown.
func (mx *mixer) lookupDomain(r *simrand.RNG) (d string, unknown bool) {
	switch p := r.Float64(); {
	case p < 0.70:
		return mx.known[mx.zipf.draw(r)], false
	case p < 0.85:
		return simrand.Pick(r, mx.squats), false
	default:
		return r.Letters(12) + ".net", true
	}
}

// next draws one request: 90% GET /verdict, 5% POST /verdicts, 5% POST
// /update (half re-pointed known domains, half new registrations).
func (mx *mixer) next(r *simrand.RNG) request {
	switch p := r.Float64(); {
	case p < 0.90:
		d, unknown := mx.lookupDomain(r)
		return request{
			kind: reqLookup, unknown: unknown, target: "/verdict?domain=" + url.QueryEscape(d),
			domains: []string{d}, expect: []bool{mx.match(d)},
		}
	case p < 0.95:
		q := request{kind: reqBulk, target: "/verdicts"}
		for i := 0; i < serveBulkSize; i++ {
			d, _ := mx.lookupDomain(r)
			q.domains = append(q.domains, d)
			q.expect = append(q.expect, mx.match(d))
		}
		q.body, _ = json.Marshal(q.domains) // a []string always marshals
		return q
	default:
		q := request{kind: reqUpdate, target: "/update"}
		recs := make([]serve.UpdateRecord, serveUpdateSize)
		for i := range recs {
			d := r.Letters(9) + ".com"
			if i%2 == 0 {
				d = mx.known[r.Intn(len(mx.known))]
			}
			ip := dnsx.RandomIP(r)
			recs[i] = serve.UpdateRecord{Domain: d, IP: fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])}
			q.domains = append(q.domains, d)
			q.ips = append(q.ips, ip)
			q.expect = append(q.expect, mx.match(d))
		}
		q.body, _ = json.Marshal(recs) // plain strings always marshal
		return q
	}
}

// squatdStore rebuilds, in this process, the store squatd generates for
// the same brand arguments, -gen and -seed (cmd/squatd loadStore): the
// source of "known" domains and of the in-process probes.
func squatdStore(sb []squat.Brand, gen int, seed uint64) (store *dnsx.Store, planted []string) {
	g := squat.NewGenerator()
	for _, b := range sb {
		for i, c := range g.Generate(b) {
			if i%5 == 0 {
				planted = append(planted, c.Domain)
			}
		}
	}
	return dnsx.GenerateSnapshot(dnsx.SnapshotSpec{Planted: planted, NoiseRecords: gen, Seed: seed}), planted
}

// serveWorkload is serve-mixed: a squatd child process driven over
// loopback HTTP, open loop then closed loop.
type serveWorkload struct {
	bin    string // built squatd
	buildS float64

	brands  []squat.Brand
	matcher *squat.Matcher
	proc    *squatd
	client  *http.Client

	openReqs []request
	openDue  []time.Duration
	closed   [][]request // per connection
	phase    time.Duration
	sha      string
	sizes    map[string]int64
}

// prepare builds squatd once per process, outside set-up: compile time is
// toolchain-cache noise, reported as bench.build_s and kept out of
// setup_s.
func (w *serveWorkload) prepare(rc *runCtx) error {
	w.bin = filepath.Join(rc.dir, "squatd")
	cmd := exec.CommandContext(rc.ctx, "go", "build", "-o", w.bin, "./cmd/squatd")
	cmd.Dir = rc.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/squatd: %w\n%s", err, stderr.String())
	}
	w.buildS = time.Since(t0).Seconds()
	return nil
}

func (w *serveWorkload) setup(rc *runCtx) error {
	args := []string{"-gen", fmt.Sprint(serveGenRecords), "-seed", fmt.Sprint(rc.seed), "-addr", "127.0.0.1:0"}
	w.brands = nil
	for _, b := range universe().SquatBrands() {
		args = append(args, b.Domain())
		w.brands = append(w.brands, squat.NewBrand(b.Domain())) // exactly as squatd parses its arguments
	}
	w.client = &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        rc.workers,
			MaxIdleConnsPerHost: rc.workers,
			MaxConnsPerHost:     rc.workers,
			DisableCompression:  true,
		},
		Timeout: 10 * time.Second,
	}
	// Boot is exec to the first 200 from /healthz and nothing else: the
	// harness's own set-up work starts only after it.
	var err error
	rc.timed("squatd.boot", func() {
		if w.proc, err = startSquatd(rc, w.bin, args); err == nil {
			err = w.proc.waitHealthy(rc.ctx, w.client)
		}
	})
	if err != nil {
		return err
	}

	// Build the same world here: the schedule needs its domains and the
	// oracle its matcher.
	rc.timed("squat.NewMatcher", func() { w.matcher = squat.NewMatcher(w.brands) })
	var store *dnsx.Store
	var planted []string
	rc.timed("dnsx.GenerateSnapshot", func() { store, planted = squatdStore(w.brands, serveGenRecords, rc.seed) })
	plantedSet := make(map[string]struct{}, len(planted))
	for _, d := range planted {
		plantedSet[dnsx.Normalize(d)] = struct{}{}
	}
	mx := &mixer{m: w.matcher, matched: map[string]bool{}}
	for _, d := range store.Domains() {
		if _, ok := plantedSet[d]; ok {
			if mx.match(d) {
				mx.squats = append(mx.squats, d)
			}
		} else {
			mx.known = append(mx.known, d)
		}
	}
	mx.zipf = newZipf(len(mx.known), zipfS)

	base := simrand.New(rc.seed).Split("serve-mixed")
	w.phase = rc.phaseLen / 2
	ar := base.Split("arrivals")
	w.openDue = poissonDue(ar.Float64, serveOpenRate, w.phase)
	or := base.Split("open")
	w.openReqs = make([]request, len(w.openDue))
	for i := range w.openReqs {
		w.openReqs[i] = mx.next(or)
	}
	w.closed = make([][]request, rc.workers)
	pool := int(serveClosedPool * w.phase.Seconds())
	for c := range w.closed {
		cr := base.Split("closed").SplitN(uint64(c))
		w.closed[c] = make([]request, pool)
		for k := range w.closed[c] {
			w.closed[c][k] = mx.next(cr)
		}
	}

	h := sha256.New()
	for i, q := range w.openReqs {
		fmt.Fprintf(h, "%d %s ", w.openDue[i], q.target)
		h.Write(q.body)
	}
	for _, list := range w.closed {
		for _, q := range list {
			h.Write([]byte(q.target))
			h.Write(q.body)
		}
	}
	w.sha = hex.EncodeToString(h.Sum(nil))
	w.sizes = map[string]int64{
		"gen_records":      serveGenRecords,
		"store_records":    int64(store.Len()),
		"planted":          int64(len(planted)),
		"brands":           int64(len(w.brands)),
		"connections":      int64(rc.workers),
		"open_rate_rps":    int64(serveOpenRate),
		"open_requests":    int64(len(w.openReqs)),
		"closed_pool_conn": int64(pool),
	}

	return nil
}

func (w *serveWorkload) teardown(rc *runCtx) {
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	if w.proc != nil {
		w.proc.stop()
		w.proc = nil
	}
	w.openReqs, w.closed = nil, nil
}

func (w *serveWorkload) describe() (string, map[string]int64) { return w.sha, w.sizes }

func (w *serveWorkload) fingerprints() (uint64, uint64) { return w.matcher.Fingerprint(), 0 }

// connState is the reusable buffer and the tallies of one connection.
type connState struct {
	buf                            bytes.Buffer
	httpErrors, mismatch, degraded int64
	verdicts                       int64
}

// do performs one request and checks its reply: 200, and the matched bit
// of every verdict equal to Matcher.Match on that domain.
func (w *serveWorkload) do(ctx context.Context, st *connState, q *request) {
	req, err := q.httpRequest(ctx, w.proc.addr)
	if err != nil {
		st.httpErrors++
		return
	}
	resp, err := w.client.Do(req)
	if err != nil {
		st.httpErrors++
		return
	}
	st.buf.Reset()
	_, err = st.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		st.httpErrors++
		return
	}
	bad, degraded := checkVerdicts(st.buf.Bytes(), q.expect)
	st.mismatch += int64(bad)
	st.degraded += int64(degraded)
	st.verdicts += int64(len(q.expect))
}

var (
	matchedKey  = []byte(`"matched":`)
	degradedKey = []byte(`"degraded":true`)
)

// checkVerdicts reads the matched bits of a verdict reply in order — each
// verdict object carries exactly one "matched": key, and a domain string
// cannot hold an unescaped quote — and counts the ones that differ from
// expect, plus any verdict missing or extra.
func checkVerdicts(body []byte, expect []bool) (bad, degraded int) {
	degraded = bytes.Count(body, degradedKey)
	i := 0
	for {
		at := bytes.Index(body, matchedKey)
		if at < 0 {
			break
		}
		body = body[at+len(matchedKey):]
		got := len(body) > 0 && body[0] == 't'
		if i >= len(expect) || got != expect[i] {
			bad++
		}
		i++
	}
	if i < len(expect) {
		bad += len(expect) - i
	}
	return bad, degraded
}

func (w *serveWorkload) measure(rc *runCtx, d time.Duration) (*measured, error) {
	if d/2 != w.phase {
		return nil, fmt.Errorf("schedule was generated for %v phases, measure asked for %v", w.phase, d/2)
	}
	conns := make([]*connState, rc.workers)
	for i := range conns {
		conns[i] = &connState{}
	}
	// Warm-up, untimed: open the keep-alive connections and let squatd's
	// first-request lazy set-up finish.
	warm := make([]connState, rc.workers)
	runClosedLoop(rc.ctx, 200*time.Millisecond, rc.workers, func(c, k int) {
		w.do(rc.ctx, &warm[c], &w.closed[c][k%len(w.closed[c])])
	})
	// This process is the load generator: collect now so that no cycle of
	// ours lands inside a phase and reads as squatd's latency.
	runtime.GC()

	// Phase A, open loop: independent verdict consumers.
	phaseA := rc.tr.start(rc.parent, "loadgen.open_loop")
	open := runOpenLoop(rc.ctx, w.openDue, rc.workers, w.phase+serveOpenGrace, func(c, i int) {
		sp := rc.tr.start(phaseA, "squatd."+kindName(w.openReqs[i].kind))
		w.do(rc.ctx, conns[c], &w.openReqs[i])
		sp.end()
	})
	phaseA.end()

	// Phase B, closed loop: batch enrichers that wait for each reply.
	runtime.GC()
	phaseB := rc.tr.start(rc.parent, "loadgen.closed_loop")
	completed, _, windows := runClosedLoop(rc.ctx, w.phase, rc.workers, func(c, k int) {
		w.do(rc.ctx, conns[c], &w.closed[c][k%len(w.closed[c])])
	})
	phaseB.end()
	if err := rc.ctx.Err(); err != nil {
		return nil, err
	}

	m := &measured{tallies: map[string]int64{}, layer: map[string]float64{}}
	var lookups, bulks, updates, late []float64
	sent := 0
	for i, ok := range open.sent {
		if !ok {
			continue
		}
		sent++
		m.opUS = append(m.opUS, open.latencyUS[i])
		late = append(late, open.lateUS[i])
		switch w.openReqs[i].kind {
		case reqLookup:
			lookups = append(lookups, open.latencyUS[i])
		case reqBulk:
			bulks = append(bulks, open.latencyUS[i])
		case reqUpdate:
			updates = append(updates, open.latencyUS[i])
		}
	}
	queued := open.queued()
	achieved := float64(sent) / open.wall.Seconds()
	rates := make([]float64, len(windows))
	for i, n := range windows {
		rates[i] = float64(n) / closedWindow.Seconds()
	}
	m.throughput, m.throughputN = median(rates), len(rates)

	var httpErrors, mismatch, degraded, verdicts int64
	for _, st := range conns {
		httpErrors += st.httpErrors
		mismatch += st.mismatch
		degraded += st.degraded
		verdicts += st.verdicts
	}
	m.attempted = int64(len(w.openReqs)) + completed + 1
	m.failed = httpErrors + mismatch + int64(queued)
	// The open-loop phase is only valid if the generator held its rate.
	if want := float64(len(w.openReqs)) / w.phase.Seconds(); achieved < 0.99*want || queued > rc.workers {
		m.failed++
		fmt.Fprintf(os.Stderr, "benchmark: serve-mixed: open loop fell behind: %.0f of %.0f req/s, %d queued at phase end\n", achieved, want, queued)
	}
	if err := w.proc.healthy(rc.ctx, w.client); err != nil {
		m.failed++
		fmt.Fprintln(os.Stderr, "benchmark: serve-mixed: post-run health check:", err)
	}
	m.rssMB = peakRSSMB(w.proc.cmd.Process.Pid)

	m.tallies["open_sent"] = int64(sent)
	m.tallies["open_queued"] = int64(queued)
	m.tallies["closed_completed"] = completed
	m.tallies["verdicts_checked"] = verdicts
	m.tallies["verdict_mismatches"] = mismatch
	m.layer["serve.closed_rps"] = m.throughput
	m.layer["serve.lookup_p50_us"] = median(lookups)
	m.layer["serve.lookup_p99_us"] = percentile(lookups, 99)
	m.layer["serve.lookup_p999_us"] = percentile(lookups, 99.9)
	m.layer["serve.update_p99_us"] = percentile(updates, 99)
	m.layer["serve.bulk_p50_ms"] = median(bulks) / 1e3
	m.layer["serve.http_errors"] = float64(httpErrors)
	m.layer["serve.degraded"] = float64(degraded)
	m.layer["loadgen.achieved_rps"] = achieved
	m.layer["loadgen.late_p99_us"] = percentile(late, 99)
	m.layer["loadgen.queued_at_end"] = float64(queued)
	return m, nil
}

func kindName(k uint8) string {
	switch k {
	case reqBulk:
		return "POST /verdicts"
	case reqUpdate:
		return "POST /update"
	}
	return "GET /verdict"
}

// discard is an http.ResponseWriter that keeps nothing: the handler's
// decode, lookup and encode run, the socket does not.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(status int)      { d.status = status }

func (w *serveWorkload) probe(rc *runCtx, base *measured, out map[string]float64) error {
	out["bench.build_s"] = w.buildS
	out["squatd.boot_ms"] = w.proc.bootMS

	// An in-process coordinator warmed from the same store, driven by the
	// same schedule: the serving layer without HTTP.
	store, _ := squatdStore(w.brands, serveGenRecords, rc.seed)
	cands := core.ScanStore(store, w.matcher, rc.workers, nil)
	coord := serve.New(serve.Config{Shards: store.NumShards(), Matcher: w.matcher, Metrics: obs.NewRegistry()})
	var werr error
	out["serve.warm_ms"] = ms(rc.timed("serve.Coordinator.Warm", func() { werr = coord.Warm(store, cands) }))
	if werr != nil {
		return werr
	}
	var known, unknown []string
	var bulk, update []*request
	for i := range w.openReqs {
		q := &w.openReqs[i]
		switch {
		case q.kind == reqBulk:
			bulk = append(bulk, q)
		case q.kind == reqUpdate:
			update = append(update, q)
		case q.unknown:
			unknown = append(unknown, q.domains[0])
		default:
			known = append(known, q.domains[0])
		}
	}
	if len(known) == 0 || len(unknown) == 0 || len(bulk) == 0 || len(update) == 0 {
		return errors.New("schedule too short to probe every request kind")
	}
	out["serve.lookup_ns"] = float64(rc.timed("serve.Coordinator.Lookup", func() {
		for _, d := range known {
			coord.Lookup(d)
		}
	}).Nanoseconds()) / float64(len(known))
	out["serve.lookup_unknown_ns"] = float64(rc.timed("serve.Coordinator.Lookup.unknown", func() {
		for _, d := range unknown {
			coord.Lookup(d)
		}
	}).Nanoseconds()) / float64(len(unknown))
	out["serve.batch_ns_per_domain"] = float64(rc.timed("serve.Coordinator.LookupBatch", func() {
		for _, q := range bulk {
			coord.LookupBatch(q.domains)
		}
	}).Nanoseconds()) / float64(len(bulk)*serveBulkSize)
	out["serve.apply_ns"] = float64(rc.timed("serve.Coordinator.Apply", func() {
		for _, q := range update {
			for i, d := range q.domains {
				coord.Apply(d, q.ips[i])
			}
		}
	}).Nanoseconds()) / float64(len(update)*serveUpdateSize)

	// The handlers: decode + lookup + encode against a writer that keeps
	// nothing, so the socket and net/http's server loop are left out.
	handlers := map[string]http.Handler{}
	for _, r := range coord.Routes() {
		handlers[r.Pattern] = r.Handler
	}
	handle := func(name, pattern string, reqs []*request) (float64, error) {
		h := handlers[pattern]
		if h == nil {
			return 0, fmt.Errorf("coordinator has no %s route", pattern)
		}
		prepared := make([]*http.Request, len(reqs))
		for i, q := range reqs {
			r, err := q.httpRequest(rc.ctx, "squatd")
			if err != nil {
				return 0, err
			}
			prepared[i] = r
		}
		bad := 0
		d := rc.timed(name, func() {
			for _, r := range prepared {
				dw := discard{h: http.Header{}}
				h.ServeHTTP(&dw, r)
				if dw.status != 0 && dw.status != http.StatusOK {
					bad++
				}
			}
		})
		if bad > 0 {
			return 0, fmt.Errorf("%d of %d %s handler calls did not return 200", bad, len(reqs), pattern)
		}
		return us(d) / float64(len(reqs)), nil
	}
	var lookupReqs []*request
	for i := range w.openReqs {
		if w.openReqs[i].kind == reqLookup {
			lookupReqs = append(lookupReqs, &w.openReqs[i])
		}
	}
	var err error
	if out["serve.handler_us"], err = handle("serve.handleVerdict", "/verdict", lookupReqs); err != nil {
		return err
	}
	if out["serve.handler_bulk_us"], err = handle("serve.handleBulk", "/verdicts", bulk); err != nil {
		return err
	}
	if out["serve.handler_update_us"], err = handle("serve.handleUpdate", "/update", update); err != nil {
		return err
	}

	// obs: what the hardened listener, net/http and loopback add on top of
	// the handler (one connection, so nothing queues), and the Stopwatch +
	// histogram pair every Lookup pays.
	var rtt []float64
	st := &connState{}
	k := 0
	sp := rc.tr.start(rc.parent, "obs.http_roundtrip")
	runClosedLoop(rc.ctx, time.Second, 1, func(int, int) {
		q := lookupReqs[k%len(lookupReqs)]
		k++
		t0 := time.Now()
		w.do(rc.ctx, st, q)
		rtt = append(rtt, us(time.Since(t0)))
	})
	sp.end()
	out["obs.http_tax_us"] = median(rtt) - out["serve.handler_us"]
	hist := obs.NewRegistry().Histogram("bench.stopwatch_us", obs.MicrosBuckets)
	const stopwatchN = 1_000_000
	out["obs.stopwatch_ns"] = float64(rc.timed("obs.Stopwatch", func() {
		for i := 0; i < stopwatchN; i++ {
			sw := obs.StartStopwatch()
			hist.Observe(sw.Micros())
		}
	}).Nanoseconds()) / stopwatchN

	// squatd: SIGTERM to exit 0, through the graceful drain.
	w.client.CloseIdleConnections()
	dStop, err := w.proc.stop()
	w.proc = nil
	if err != nil {
		return fmt.Errorf("squatd shutdown: %w", err)
	}
	out["squatd.shutdown_ms"] = ms(dStop)
	return nil
}

// squatd is the child process under test.
type squatd struct {
	cmd    *exec.Cmd
	addr   string
	bootMS float64
	start  time.Time

	logDone chan struct{}
	mu      sync.Mutex
	tail    []string // last lines of its log, for error reports
}

// startSquatd execs the daemon and waits for the log line that carries the
// address it bound (-addr 127.0.0.1:0 picks a free port).
func startSquatd(rc *runCtx, bin string, args []string) (*squatd, error) {
	p := &squatd{logDone: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Dir = rc.dir
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p.start = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			const marker = "serving verdicts on http://"
			if i := strings.Index(line, marker); i >= 0 {
				rest := line[i+len(marker):]
				if sp := strings.IndexByte(rest, ' '); sp > 0 {
					rest = rest[:sp]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.logDone:
		p.cmd.Wait()
		return nil, fmt.Errorf("squatd exited before serving:\n%s", p.logTail())
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("squatd did not report its address within 60s:\n%s", p.logTail())
	case <-rc.ctx.Done():
		p.stop()
		return nil, rc.ctx.Err()
	}
}

func (p *squatd) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// healthy is one GET /healthz: 200 and no shard down.
func (p *squatd) healthy(ctx context.Context, client *http.Client) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body struct {
		Down []int `json:"down"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || len(body.Down) > 0 {
		return fmt.Errorf("healthz %d, shards down: %v", resp.StatusCode, body.Down)
	}
	return nil
}

// waitHealthy polls /healthz until it answers 200; boot time is exec to
// that first 200.
func (p *squatd) waitHealthy(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := p.healthy(ctx, client)
		if err == nil {
			p.bootMS = ms(time.Since(p.start))
			return nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("squatd never became healthy: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the daemon to drain and exit 0; a
// daemon still there after ten seconds is killed. Either way the process
// is reaped before stop returns.
func (p *squatd) stop() (time.Duration, error) {
	t0 := time.Now()
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // "already finished" is what the Wait below reports
	timer := time.AfterFunc(10*time.Second, func() { _ = p.cmd.Process.Kill() })
	<-p.logDone
	err := p.cmd.Wait()
	timer.Stop()
	if err != nil {
		return time.Since(t0), fmt.Errorf("%w\n%s", err, p.logTail())
	}
	return time.Since(t0), nil
}
