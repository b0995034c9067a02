package crawler

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"squatphi/internal/obs"
	"squatphi/internal/ocr"
	"squatphi/internal/webworld"
)

// testEnv builds a small world and server shared by the tests.
func testEnv(t testing.TB) (*webworld.World, *webworld.Server, *Crawler) {
	t.Helper()
	w := webworld.Build(webworld.Config{SquattingDomains: 2000, NonSquattingPhish: 150, Seed: 41})
	srv, err := webworld.NewServer(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return w, srv, &Crawler{Client: srv.Client(), Workers: 8}
}

func TestCaptureOriginalBrandPage(t *testing.T) {
	_, _, c := testEnv(t)
	cap := c.CaptureProfile(context.Background(), "paypal.com", false)
	if !cap.Live || cap.StatusCode != 200 {
		t.Fatalf("capture = %+v", cap)
	}
	if !strings.Contains(cap.HTML, "Paypal") {
		t.Error("HTML missing brand")
	}
	if cap.Assets["/logo.png"] != "Paypal" {
		t.Errorf("assets = %v", cap.Assets)
	}
	if cap.Shot == nil || cap.Shot.InkRatio() == 0 {
		t.Error("screenshot missing or empty")
	}
	if cap.Redirected() {
		t.Error("original page reported as redirected")
	}
}

func TestCaptureFollowsRedirects(t *testing.T) {
	w, _, c := testEnv(t)
	var domain, target string
	for _, d := range w.SquattingDomains {
		if s := w.Sites[d]; s.Kind == webworld.RedirectOriginal {
			domain, target = d, s.RedirectTo
			break
		}
	}
	if domain == "" {
		t.Skip("no redirect domain in world")
	}
	cap := c.CaptureProfile(context.Background(), domain, false)
	if !cap.Live {
		t.Fatalf("redirect capture dead: %+v", cap)
	}
	if !cap.Redirected() || cap.FinalHost != target {
		t.Fatalf("chain = %v final = %s, want -> %s", cap.RedirectChain, cap.FinalHost, target)
	}
}

func TestCaptureDeadDomain(t *testing.T) {
	w, _, c := testEnv(t)
	var dead string
	for _, d := range w.SquattingDomains {
		if w.Sites[d].Kind == webworld.Dead {
			dead = d
			break
		}
	}
	if dead == "" {
		t.Skip("no dead domain")
	}
	cap := c.CaptureProfile(context.Background(), dead, false)
	if cap.Live {
		t.Fatalf("dead domain reported live: %+v", cap)
	}
}

func TestCaptureCloakedSiteDiffersByProfile(t *testing.T) {
	w, _, c := testEnv(t)
	var site *webworld.Site
	for _, s := range w.PhishingSites() {
		if s.Cloak == webworld.CloakMobileOnly && s.Alive[0] && s.ReplacedAt != 0 && s.ReplacedFrom != 0 {
			site = s
			break
		}
	}
	if site == nil {
		t.Skip("no mobile-only site")
	}
	web := c.CaptureProfile(context.Background(), site.Domain, false)
	mob := c.CaptureProfile(context.Background(), site.Domain, true)
	if !web.Live || !mob.Live {
		t.Fatalf("cloaked site not live for both (web %v mobile %v)", web.Live, mob.Live)
	}
	// Every phishing page carries a data-submission form; the cloak filler
	// page does not.
	if strings.Contains(web.HTML, "<form") {
		t.Error("web profile saw the cloaked phishing form")
	}
	if !strings.Contains(mob.HTML, "<form") {
		t.Error("mobile profile missed the phishing form")
	}
}

func TestCrawlBulkStatistics(t *testing.T) {
	w, _, c := testEnv(t)
	domains := w.SquattingDomains
	if len(domains) > 400 {
		domains = domains[:400]
	}
	results, err := c.Crawl(context.Background(), domains, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(domains) {
		t.Fatalf("results = %d, want %d", len(results), len(domains))
	}
	live, redirected := 0, 0
	for i, r := range results {
		if r.Domain != domains[i] {
			t.Fatal("result order broken")
		}
		if r.Web.Live {
			live++
			if r.Web.Redirected() {
				redirected++
			}
		}
	}
	liveFrac := float64(live) / float64(len(results))
	if liveFrac < 0.35 || liveFrac > 0.75 {
		t.Errorf("live fraction = %.2f, want ~0.55 (Table 2)", liveFrac)
	}
	if redirected == 0 {
		t.Error("no redirections observed")
	}
}

func TestCrawlContextCancel(t *testing.T) {
	w, _, c := testEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Crawl(ctx, w.SquattingDomains[:50], nil)
	if err == nil {
		t.Fatal("cancelled crawl returned nil error")
	}
}

func TestScreenshotOCRSeesImageText(t *testing.T) {
	// End-to-end: a string-obfuscated phishing page crawled over HTTP must
	// yield a screenshot from which OCR recovers the brand that is absent
	// from the HTML.
	w, _, c := testEnv(t)
	var site *webworld.Site
	for _, s := range w.PhishingSites() {
		if s.StringObf && s.Cloak != webworld.CloakMobileOnly && s.IsPhishingAt(0) {
			page, _ := w.PageFor(s, 0, false)
			if !strings.Contains(strings.ToLower(page.HTML), s.Brand.Name) {
				site = s
				break
			}
		}
	}
	if site == nil {
		t.Skip("no fully string-obfuscated page in world")
	}
	cap := c.CaptureProfile(context.Background(), site.Domain, false)
	if !cap.Live {
		t.Fatal("site not live")
	}
	if strings.Contains(strings.ToLower(cap.HTML), site.Brand.Name) {
		t.Fatal("HTML contains brand; test premise broken")
	}
	var e ocr.Engine
	text := strings.ToLower(e.Recognize(cap.Shot))
	if !strings.Contains(text, site.Brand.Name) {
		t.Errorf("OCR text %q missing brand %q", text, site.Brand.Name)
	}
}

func TestSkipRender(t *testing.T) {
	_, _, c := testEnv(t)
	c.SkipRender = true
	cap := c.CaptureProfile(context.Background(), "paypal.com", false)
	if cap.Shot != nil || cap.Screenshot() != nil {
		t.Fatal("SkipRender still rendered")
	}
}

// TestScreenshotRedrawsDroppedShot is the contract a cached crawl rests
// on: for every live capture of a crawl, web and mobile, Screenshot after
// Shot is dropped in the visit hook returns the crawl's raster byte for
// byte. The domains include every phishing site, so pages with image
// assets and with a layout-seed meta are both covered.
func TestScreenshotRedrawsDroppedShot(t *testing.T) {
	w, _, c := testEnv(t)
	domains := append([]string{"paypal.com"}, w.SquattingDomains[:120]...)
	for _, s := range w.PhishingSites() {
		domains = append(domains, s.Domain)
	}
	diffs := make([][2]bool, len(domains))
	results, err := c.Crawl(context.Background(), domains, func(i int, r *Result) {
		for pi, cap := range []*Capture{&r.Web, &r.Mobile} {
			shot := cap.Shot
			cap.Shot = nil
			again := cap.Screenshot()
			if (shot == nil) != (again == nil) ||
				shot != nil && (shot.W != again.W || shot.H != again.H || !bytes.Equal(shot.Pix, again.Pix)) {
				diffs[i][pi] = true
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var live, assets, layout [2]int
	for i, r := range results {
		for pi, cap := range []*Capture{&r.Web, &r.Mobile} {
			if diffs[i][pi] {
				t.Errorf("%s (profile %d): the redrawn screenshot differs from the crawl's", r.Domain, pi)
			}
			if cap.Shot != nil {
				t.Fatalf("%s: the visit hook's edit did not reach the result", r.Domain)
			}
			if !cap.Live {
				if cap.Screenshot() != nil {
					t.Errorf("%s: a dead capture has a screenshot", r.Domain)
				}
				continue
			}
			live[pi]++
			if len(cap.Assets) > 0 {
				assets[pi]++
			}
			if strings.Contains(cap.HTML, `name="layout-seed"`) {
				layout[pi]++
			}
		}
	}
	for pi, name := range []string{"web", "mobile"} {
		t.Logf("%s: %d live captures, %d with image assets, %d with a layout seed", name, live[pi], assets[pi], layout[pi])
		if assets[pi] == 0 || layout[pi] == 0 {
			t.Errorf("%s: the crawl covers no page with image assets or no page with a layout seed", name)
		}
	}
}

func TestHostOfAndAbsoluteURL(t *testing.T) {
	if hostOf("http://a.com:8080/x/y") != "a.com" {
		t.Error("hostOf with port/path")
	}
	if absoluteURL("http://a.com/x", "/y") != "http://a.com/y" {
		t.Error("absolute path resolution")
	}
	if absoluteURL("http://a.com/x", "http://b.com/") != "http://b.com/" {
		t.Error("full URL resolution")
	}
	if absoluteURL("http://a.com/x", "y") != "http://a.com/y" {
		t.Error("relative resolution")
	}
}

func TestDayOfSnapshot(t *testing.T) {
	if DayOfSnapshot(0) != 0 || DayOfSnapshot(3) != 28 || DayOfSnapshot(9) != 0 {
		t.Fatal("DayOfSnapshot mapping wrong")
	}
}

// errRT is a RoundTripper that always fails with the given error.
type errRT struct{ err error }

func (e errRT) RoundTrip(*http.Request) (*http.Response, error) { return nil, e.err }

// statusRT is a RoundTripper that always answers with the given status.
type statusRT struct{ code int }

func (s statusRT) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: s.code,
		Body:       io.NopCloser(strings.NewReader("")),
		Header:     http.Header{},
		Request:    req,
	}, nil
}

// fakeTimeout satisfies net.Error with Timeout() == true.
type fakeTimeout struct{}

func (fakeTimeout) Error() string   { return "fake timeout" }
func (fakeTimeout) Timeout() bool   { return true }
func (fakeTimeout) Temporary() bool { return true }

// TestFailingFetchCountsFailureOnce is the regression test for failure
// accounting: one failing page fetch must increment the failure counter
// exactly once, however many transport retries it took.
func TestFailingFetchCountsFailureOnce(t *testing.T) {
	reg := obs.NewRegistry()
	c := &Crawler{
		Client:     &http.Client{Transport: errRT{err: fakeTimeout{}}},
		Metrics:    reg,
		SkipRender: true,
	}
	cap := c.CaptureProfile(context.Background(), "down.test", false)
	if cap.Live {
		t.Fatalf("capture of erroring transport reported live: %+v", cap)
	}
	if got := reg.Counter("crawler.fetch.failures").Value(); got != 1 {
		t.Errorf("failure counter = %d, want exactly 1", got)
	}
	// Default policy is one retry, so two attempts and two timeouts.
	if got := reg.Counter("crawler.fetch.retries").Value(); got != 1 {
		t.Errorf("retry counter = %d, want 1", got)
	}
	if got := reg.Counter("crawler.fetch.timeouts").Value(); got != 2 {
		t.Errorf("timeout counter = %d, want 2", got)
	}
	if got := c.HostFailures()["down.test"]; got != 1 {
		t.Errorf("host failure count = %d, want 1 (map: %v)", got, c.HostFailures())
	}
	if got := c.HostRetries()["down.test"]; got != 1 {
		t.Errorf("host retry count = %d, want 1 (map: %v)", got, c.HostRetries())
	}
}

// TestErrorStatusNotRetried: an HTTP error status is a definitive answer —
// one failure, no retries.
func TestErrorStatusNotRetried(t *testing.T) {
	reg := obs.NewRegistry()
	c := &Crawler{
		Client:     &http.Client{Transport: statusRT{code: 503}},
		Metrics:    reg,
		SkipRender: true,
	}
	cap := c.CaptureProfile(context.Background(), "busy.test", false)
	if cap.Live || cap.StatusCode != 503 {
		t.Fatalf("capture = %+v, want dead with status 503", cap)
	}
	if got := reg.Counter("crawler.fetch.failures").Value(); got != 1 {
		t.Errorf("failure counter = %d, want 1", got)
	}
	if got := reg.Counter("crawler.fetch.retries").Value(); got != 0 {
		t.Errorf("retry counter = %d, want 0 (server answered)", got)
	}
}

// TestRetriesDisabled: Retries < 0 turns retrying off entirely.
func TestRetriesDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	c := &Crawler{
		Client:     &http.Client{Transport: errRT{err: fakeTimeout{}}},
		Metrics:    reg,
		Retries:    -1,
		SkipRender: true,
	}
	_ = c.CaptureProfile(context.Background(), "down.test", false)
	if got := reg.Counter("crawler.fetch.retries").Value(); got != 0 {
		t.Errorf("retry counter = %d, want 0", got)
	}
	if got := reg.Counter("crawler.fetch.failures").Value(); got != 1 {
		t.Errorf("failure counter = %d, want 1", got)
	}
}

// TestCrawlMetrics checks the aggregate counters over a real crawl.
func TestCrawlMetrics(t *testing.T) {
	w, srv, _ := testEnv(t)
	reg := obs.NewRegistry()
	c := &Crawler{Client: srv.Client(), Workers: 8, Metrics: reg, SkipRender: true}
	domains := w.SquattingDomains
	if len(domains) > 100 {
		domains = domains[:100]
	}
	if _, err := c.Crawl(context.Background(), domains, nil); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	// Two profiles per domain.
	if got := snap.Counters["crawler.pages"]; got != int64(2*len(domains)) {
		t.Errorf("pages = %d, want %d", got, 2*len(domains))
	}
	if snap.Counters["crawler.live"] == 0 {
		t.Error("no live pages counted")
	}
	if snap.Histograms["crawler.fetch_ms"].Count == 0 {
		t.Error("no fetch latencies observed")
	}
	if snap.Gauges["crawler.inflight"] != 0 || snap.Gauges["crawler.pending"] != 0 {
		t.Errorf("pool gauges not drained: inflight=%v pending=%v",
			snap.Gauges["crawler.inflight"], snap.Gauges["crawler.pending"])
	}
	if _, ok := snap.Values["crawler.host_failures"]; !ok {
		t.Error("per-host failure map not exposed in snapshot")
	}
}

func BenchmarkCaptureProfile(b *testing.B) {
	_, _, c := testEnv(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.CaptureProfile(ctx, "paypal.com", false)
	}
}

func BenchmarkCrawl100(b *testing.B) {
	w, _, c := testEnv(b)
	domains := w.SquattingDomains[:100]
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Crawl(ctx, domains, nil)
	}
}
