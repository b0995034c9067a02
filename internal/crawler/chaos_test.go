package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"squatphi/internal/faultx"
	"squatphi/internal/obs"
	"squatphi/internal/obs/trace"
	"squatphi/internal/retry"
)

// chaosPage is what the chaos origin serves: a page referencing one asset.
const chaosPage = `<html><body><h1>Brand Login</h1><img src="/logo.png"></body></html>`

// chaosOrigin starts an HTTP origin answering any Host with the chaos
// page and its asset.
func chaosOrigin(t testing.TB) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, chaosPage)
	})
	mux.HandleFunc("/logo.png", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "LOGO")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// chaosClient builds an http.Client that dials the origin for every host
// and injects faults per f, reporting into reg.
func chaosClient(origin *httptest.Server, f faultx.Faults, reg *obs.Registry) *http.Client {
	addr := origin.Listener.Addr().String()
	inner := &http.Transport{
		DisableKeepAlives: true,
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
	}
	return &http.Client{Transport: faultx.NewTransport(inner, f, reg)}
}

// chaosCounts are the schedule-independent counters a chaos crawl must
// reproduce exactly at any worker count.
type chaosCounts struct {
	Drops, Resets, FiveXX, Slows                        int64
	Pages, Live, Retries, Timeouts, Failures, AssetErrs int64
}

// simulateCrawl is the oracle: it replays the fault plan through the
// same decision structure as CaptureProfile/fetchPage and returns the exact counters the real crawl must
// produce.
func simulateCrawl(f faultx.Faults, domains []string, retries int) chaosCounts {
	var o chaosCounts
	attempts := map[string]int{}
	fetch := func(key string) (status int, ok bool) {
		for attempt := 0; ; attempt++ {
			n := attempts[key]
			attempts[key]++
			switch f.HTTPFault(key, n) {
			case "drop":
				o.Drops++
				o.Timeouts++
			case "reset":
				o.Resets++
			case "5xx":
				o.FiveXX++
				return 503, true
			case "slow_body":
				o.Slows++
				return 200, true
			default:
				return 200, true
			}
			if attempt >= retries {
				return 0, false
			}
			o.Retries++
		}
	}
	for _, d := range domains {
		for profile := 0; profile < 2; profile++ {
			o.Pages++
			status, ok := fetch(d + "/")
			if !ok || status >= 400 {
				o.Failures++
				continue
			}
			o.Live++
			if st, ok := fetch(d + "/logo.png"); !ok || st != 200 {
				o.AssetErrs++
			}
		}
	}
	return o
}

func snapshotCounts(reg *obs.Registry) chaosCounts {
	s := reg.Snapshot().Counters
	return chaosCounts{
		Drops:     s["faultx.http.drop"],
		Resets:    s["faultx.http.reset"],
		FiveXX:    s["faultx.http.5xx"],
		Slows:     s["faultx.http.slow_body"],
		Pages:     s["crawler.pages"],
		Live:      s["crawler.live"],
		Retries:   s["crawler.fetch.retries"],
		Timeouts:  s["crawler.fetch.timeouts"],
		Failures:  s["crawler.fetch.failures"],
		AssetErrs: s["crawler.asset_errors"],
	}
}

// TestChaosCrawlExactCountersAnyWorkerCount drives the crawler through a
// mixed fault plan at several seeds and worker counts and asserts the
// final counter snapshot equals the oracle's prediction exactly — the
// injected fault sequence is a pure function of (seed, key, attempt), so
// scheduling must not be able to change it.
func TestChaosCrawlExactCountersAnyWorkerCount(t *testing.T) {
	origin := chaosOrigin(t)
	domains := make([]string, 20)
	for i := range domains {
		domains[i] = fmt.Sprintf("d%02d.chaos.test", i)
	}
	const crawlRetries = 2
	for _, seed := range []uint64{1, 7, 42} {
		f := faultx.Faults{
			Seed: seed, DropProb: 0.3, ResetProb: 0.15, HTTP5xxProb: 0.15, SlowBodyProb: 0.1,
			SlowChunk: 512, SlowChunkDelay: 100 * time.Microsecond,
		}
		want := simulateCrawl(f, domains, crawlRetries)
		if want.Drops == 0 || want.FiveXX == 0 {
			t.Fatalf("seed %d: fault plan too quiet to be a useful test: %+v", seed, want)
		}
		for _, workers := range []int{1, 8} {
			reg := obs.NewRegistry()
			c := &Crawler{
				Client:     chaosClient(origin, f, reg),
				Workers:    workers,
				Retries:    crawlRetries,
				Policy:     retry.Policy{BaseDelay: -1},
				SkipRender: true,
				Metrics:    reg,
			}
			if _, err := c.Crawl(context.Background(), domains, nil); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if got := snapshotCounts(reg); got != want {
				t.Errorf("seed %d workers %d:\n got  %+v\n want %+v", seed, workers, got, want)
			}
		}
	}
}

// TestChaosEventsAttributed: a page fetch whose every attempt is dropped
// emits one crawler.fetch.retry per retry and one crawler.fetch.failed,
// and trace.EventHandler files each into the host's provenance buffer,
// as a warn event of the crawler component, while the JSON sink gets the
// same lines. A Crawler with no event log crawls the same.
func TestChaosEventsAttributed(t *testing.T) {
	origin := chaosOrigin(t)
	const host = "x.chaos.test"
	capture := func(events *slog.Logger) (Capture, map[string]int64) {
		reg := obs.NewRegistry()
		c := &Crawler{
			Client:     chaosClient(origin, faultx.Faults{Seed: 3, DropProb: 1}, reg),
			Workers:    1,
			Retries:    2,
			Policy:     retry.Policy{BaseDelay: -1},
			SkipRender: true,
			Metrics:    reg,
			Events:     events,
		}
		return c.CaptureProfile(context.Background(), host, false), reg.Snapshot().Counters
	}

	var sink bytes.Buffer
	col := trace.NewCollector(-1)
	events := slog.New(trace.EventHandler(slog.NewJSONHandler(&sink, &slog.HandlerOptions{Level: slog.LevelDebug}), col))
	logged, loggedCounts := capture(events.With("component", "crawler"))
	silent, silentCounts := capture(nil)

	for name, c := range map[string]Capture{"logged": logged, "silent": silent} {
		if c.Live || c.StatusCode != 0 {
			t.Errorf("%s capture of an always-dropping host: live=%v status=%d", name, c.Live, c.StatusCode)
		}
	}
	for _, k := range []string{"faultx.http.drop", "crawler.fetch.retries", "crawler.fetch.failures"} {
		if loggedCounts[k] != silentCounts[k] {
			t.Errorf("%s = %d with an event log, %d without", k, loggedCounts[k], silentCounts[k])
		}
	}
	if loggedCounts["crawler.fetch.retries"] != 2 || loggedCounts["crawler.fetch.failures"] != 1 {
		t.Errorf("counters = %v, want 2 retries and 1 failure", loggedCounts)
	}

	evs := col.EventsFor(host)
	var names []string
	for _, ev := range evs {
		names = append(names, ev.Name)
		if ev.Level != "warn" || ev.Component != "crawler" || ev.Attrs["domain"] != host || ev.Attrs["error"] == nil {
			t.Errorf("attributed event %+v, want a warn crawler event for %s with its error", ev, host)
		}
	}
	if want := []string{"crawler.fetch.retry", "crawler.fetch.retry", "crawler.fetch.failed"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("attributed events %v, want %v", names, want)
	}
	if evs[0].Attrs["attempt"] != int64(1) || evs[1].Attrs["attempt"] != int64(2) || evs[2].Attrs["status"] != int64(0) {
		t.Errorf("event attrs %v / %v / %v, want attempts 1, 2 and status 0", evs[0].Attrs, evs[1].Attrs, evs[2].Attrs)
	}

	lines := strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n")
	if len(lines) != len(evs) {
		t.Fatalf("sink has %d lines, want %d: %q", len(lines), len(evs), sink.String())
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("sink line %d %q: %v", i+1, line, err)
		}
		if rec["component"] != "crawler" || rec["msg"] != names[i] || rec["level"] != "WARN" {
			t.Errorf("sink line %d = %v, want the crawler's %s", i+1, rec, names[i])
		}
	}
}

// TestAssetFetchKeepsSchemePortAndRetryPath is the regression test for
// the hardcoded-scheme asset bug: asset requests used to be rebuilt as
// "http://" + host-without-port + src, bypassing fetchPage entirely, so
// against a real origin on a non-80 port every asset fetch dialled the
// wrong address and no asset retry was ever accounted.
func TestAssetFetchKeepsSchemePortAndRetryPath(t *testing.T) {
	origin := chaosOrigin(t)
	reg := obs.NewRegistry()
	// Every key's first attempt is dropped, the retry succeeds: the asset
	// fetch only survives if it goes through fetchPage's retry semantics.
	f := faultx.Faults{Seed: 13, DropProb: 1, MaxFaultsPerKey: 1}
	c := &Crawler{
		Client:     &http.Client{Transport: faultx.NewTransport(origin.Client().Transport, f, reg)},
		Workers:    1,
		Retries:    2,
		Policy:     retry.Policy{BaseDelay: -1},
		SkipRender: true,
		Metrics:    reg,
	}
	domain := origin.Listener.Addr().String() // 127.0.0.1:PORT — port must survive
	cap := c.CaptureProfile(context.Background(), domain, false)
	if !cap.Live {
		t.Fatalf("capture dead: %+v", cap)
	}
	if cap.Assets["/logo.png"] != "LOGO" {
		t.Fatalf("asset not fetched (port or scheme lost): assets = %v", cap.Assets)
	}
	s := reg.Snapshot().Counters
	if s["crawler.fetch.retries"] != 2 {
		t.Errorf("retries = %d, want 2 (page + asset each retried once)", s["crawler.fetch.retries"])
	}
	if s["crawler.asset_errors"] != 0 {
		t.Errorf("asset_errors = %d, want 0", s["crawler.asset_errors"])
	}
}

func TestAbsoluteURLPreservesSchemeAndPort(t *testing.T) {
	cases := []struct{ current, location, want string }{
		{"https://h.test:8443/x", "/a", "https://h.test:8443/a"},
		{"https://h.test/x", "a", "https://h.test/a"},
		{"http://h.test:8080/", "/logo.png", "http://h.test:8080/logo.png"},
		{"http://h.test/", "https://other.test/y", "https://other.test/y"},
	}
	for _, c := range cases {
		if got := absoluteURL(c.current, c.location); got != c.want {
			t.Errorf("absoluteURL(%q, %q) = %q, want %q", c.current, c.location, got, c.want)
		}
	}
}

// TestCrawlerRetriesConvention: negative disables retries entirely.
func TestCrawlerRetriesConvention(t *testing.T) {
	origin := chaosOrigin(t)
	reg := obs.NewRegistry()
	c := &Crawler{
		Client:     chaosClient(origin, faultx.Faults{Seed: 2, DropProb: 1}, reg),
		Workers:    1,
		Retries:    -1,
		Policy:     retry.Policy{BaseDelay: -1},
		SkipRender: true,
		Metrics:    reg,
	}
	if _, err := c.Crawl(context.Background(), []string{"x.chaos.test"}, nil); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot().Counters
	if s["faultx.http.drop"] != 2 {
		t.Errorf("transport attempts = %d, want 2 (one per profile, zero retries)", s["faultx.http.drop"])
	}
	if s["crawler.fetch.retries"] != 0 {
		t.Errorf("retries = %d, want 0", s["crawler.fetch.retries"])
	}
}
