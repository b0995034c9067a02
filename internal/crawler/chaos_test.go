package crawler

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"squatphi/internal/faultx"
	"squatphi/internal/obs"
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
// same decision structure as CaptureProfile/fetchPage (budget and
// breaker disabled) and returns the exact counters the real crawl must
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

// TestChaosBreakerOpensAndFastFails starves one host completely and
// asserts the crawler's circuit breaker opens at the threshold and
// fast-fails the remaining work.
func TestChaosBreakerOpensAndFastFails(t *testing.T) {
	origin := chaosOrigin(t)
	reg := obs.NewRegistry()
	c := &Crawler{
		Client:  chaosClient(origin, faultx.Faults{Seed: 5, DropProb: 1}, reg),
		Workers: 1,
		Retries: 1,
		Policy: retry.Policy{
			BaseDelay:        -1,
			BreakerThreshold: 3,
			BreakerCooldown:  time.Hour,
		},
		SkipRender: true,
		Metrics:    reg,
	}
	// Web profile burns attempts 1-2, mobile's first attempt is failure 3:
	// the circuit opens and the mobile retry is rejected without a fetch.
	if _, err := c.Crawl(context.Background(), []string{"dead.chaos.test"}, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Retrier().State("dead.chaos.test"); st != retry.Open {
		t.Fatalf("breaker state = %v, want open", st)
	}
	s := reg.Snapshot().Counters
	if s["crawler.breaker.opens"] != 1 {
		t.Errorf("opens = %d, want 1", s["crawler.breaker.opens"])
	}
	if s["crawler.breaker.rejected"] < 1 {
		t.Errorf("rejected = %d, want >= 1", s["crawler.breaker.rejected"])
	}
	if s["faultx.http.drop"] != 3 {
		t.Errorf("attempts reaching the transport = %d, want 3 (threshold)", s["faultx.http.drop"])
	}
}

// TestChaosHostRetryBudget bounds the total retries one host may consume.
func TestChaosHostRetryBudget(t *testing.T) {
	origin := chaosOrigin(t)
	reg := obs.NewRegistry()
	c := &Crawler{
		Client:     chaosClient(origin, faultx.Faults{Seed: 5, DropProb: 1}, reg),
		Workers:    1,
		Retries:    10,
		Policy:     retry.Policy{BaseDelay: -1, HostBudget: 3},
		SkipRender: true,
		Metrics:    reg,
	}
	if _, err := c.Crawl(context.Background(), []string{"dead.chaos.test"}, nil); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot().Counters
	if s["crawler.fetch.retries"] != 3 {
		t.Errorf("retries = %d, want 3 (budget)", s["crawler.fetch.retries"])
	}
	if s["crawler.retry.budget_exhausted"] < 1 {
		t.Errorf("budget_exhausted = %d, want >= 1", s["crawler.retry.budget_exhausted"])
	}
	// 2 page fetches: first spends 1+3 attempts draining the budget, the
	// second gets its initial attempt plus no retries.
	if s["faultx.http.drop"] != 5 {
		t.Errorf("transport attempts = %d, want 5", s["faultx.http.drop"])
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

// TestChaosBreakerRecoversViaHalfOpenProbe walks the breaker through
// open -> half-open -> closed using the policy's fake clock hook.
func TestChaosBreakerRecoversViaHalfOpenProbe(t *testing.T) {
	origin := chaosOrigin(t)
	reg := obs.NewRegistry()
	now := time.Unix(4000, 0)
	// First two transport attempts drop (opening the breaker at
	// threshold 2), everything after passes.
	f := faultx.Faults{Seed: 8, DropProb: 1, MaxFaultsPerKey: 2}
	c := &Crawler{
		Client:  chaosClient(origin, f, reg),
		Workers: 1,
		Retries: -1,
		Policy: retry.Policy{
			BaseDelay:        -1,
			BreakerThreshold: 2,
			BreakerCooldown:  10 * time.Second,
			Now:              func() time.Time { return now },
		},
		SkipRender: true,
		Metrics:    reg,
	}
	host := "flaky.chaos.test"
	cap := c.CaptureProfile(context.Background(), host, false)
	if cap.Live {
		t.Fatal("first capture unexpectedly live")
	}
	c.CaptureProfile(context.Background(), host, false) // second failure opens
	if st := c.Retrier().State(host); st != retry.Open {
		t.Fatalf("state = %v, want open", st)
	}
	// Within the cooldown the host is fast-failed without a fetch.
	drops := reg.Counter("faultx.http.drop").Value()
	if cap := c.CaptureProfile(context.Background(), host, false); cap.Live {
		t.Fatal("open breaker let a capture through")
	}
	if got := reg.Counter("faultx.http.drop").Value(); got != drops {
		t.Fatalf("open breaker still reached the transport (%d -> %d)", drops, got)
	}
	// After the cooldown the half-open probe succeeds and closes the
	// circuit (the fault cap has been spent).
	now = now.Add(11 * time.Second)
	if cap := c.CaptureProfile(context.Background(), host, false); !cap.Live {
		t.Fatalf("half-open probe failed: %+v", cap)
	}
	if st := c.Retrier().State(host); st != retry.Closed {
		t.Fatalf("state = %v, want closed after good probe", st)
	}
	s := reg.Snapshot().Counters
	if s["crawler.breaker.half_open_probes"] != 1 {
		t.Errorf("half_open_probes = %d, want 1", s["crawler.breaker.half_open_probes"])
	}
	if s["crawler.breaker.closes"] != 1 {
		t.Errorf("closes = %d, want 1", s["crawler.breaker.closes"])
	}
}
