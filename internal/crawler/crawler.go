// Package crawler implements the distributed dynamic crawler of SquatPhi
// (paper §3.2): it visits each candidate domain with both a web and a
// mobile browser profile, follows and records redirections, saves the HTML
// content, fetches the image assets the page references, and "takes a
// screenshot" by rendering the page with the layout engine.
//
// The paper drives headless Chrome from a pool of worker processes
// balanced over shared memory; this reproduction uses a goroutine worker
// pool over net/http — the idiomatic Go equivalent of the same
// architecture. Each crawled site receives only 1-2 requests per scan,
// matching the paper's politeness note.
package crawler

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"squatphi/internal/htmlx"
	"squatphi/internal/obs"
	"squatphi/internal/obs/trace"
	"squatphi/internal/render"
	"squatphi/internal/retry"
)

// Browser profiles (paper: Chrome 65 for web, iPhone 6 for mobile).
const (
	WebUA    = "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/65.0.3325.181 Safari/537.36"
	MobileUA = "Mozilla/5.0 (iPhone; CPU iPhone OS 11_0 like Mac OS X) AppleWebKit/604.1.38 (KHTML, like Gecko) Version/11.0 Mobile/15A372 Safari/604.1"
)

// Capture is one profile's view of one domain.
type Capture struct {
	Domain string
	// Live reports whether a 200 HTML document was ultimately obtained.
	Live       bool
	StatusCode int
	// RedirectChain lists the hosts traversed, starting with the domain
	// itself; length 1 means no redirection.
	RedirectChain []string
	// FinalHost is the host that served the content.
	FinalHost string
	// FinalURL is the full URL that served the content, scheme included;
	// asset fetches resolve against it so an https redirect target keeps
	// being fetched over https.
	FinalURL string
	HTML     string
	// Assets maps image src paths to their text payloads.
	Assets map[string]string
	// Shot is the rendered screenshot (nil when not Live or rendering is
	// disabled). A pipeline's cached crawl drops it once the page is
	// scored, so read the pixels through Screenshot.
	Shot *render.Raster

	// rendered reports that a screenshot was taken, and noiseLevel and
	// noiseSeed are the capture noise it was drawn with, so Screenshot can
	// draw it again once Shot is dropped.
	rendered   bool
	noiseLevel float64
	noiseSeed  uint64
}

// Screenshot returns Shot, or, when Shot was dropped, renders it again
// from HTML and Assets with the capture's own noise: the raster is byte
// for byte the one the crawl took. It is nil when Shot was never taken.
// The re-rendered raster is not kept.
func (c *Capture) Screenshot() *render.Raster {
	if c.Shot != nil || !c.rendered {
		return c.Shot
	}
	return render.Screenshot(c.HTML, c.renderOptions())
}

func (c *Capture) renderOptions() render.Options {
	return render.Options{Assets: c.Assets, NoiseLevel: c.noiseLevel, NoiseSeed: c.noiseSeed}
}

// Redirected reports whether the capture left its original host.
func (c *Capture) Redirected() bool {
	return c.Live && len(c.RedirectChain) > 1
}

// Result pairs the web and mobile captures of one domain.
type Result struct {
	Domain string
	Web    Capture
	Mobile Capture
}

// Crawler fetches and renders pages.
type Crawler struct {
	// Client performs the requests. Tests wire it to the world server.
	Client *http.Client
	// Workers is the worker-pool width (default 16).
	Workers int
	// MaxRedirects bounds redirect chains (default 5).
	MaxRedirects int
	// Render disables screenshots when false... inverted: screenshots are
	// taken unless SkipRender is set (ablation and redirect-only scans).
	SkipRender bool
	// NoiseLevel adds rendering noise, reproducing real-browser capture
	// imperfections the OCR must tolerate (default 0.002; negative
	// disables).
	NoiseLevel float64
	// MaxBodyBytes bounds response reads (default 1 MiB).
	MaxBodyBytes int64
	// Retries is the number of re-attempts after a transport error on a
	// fetch (repository retry convention: negative disables, 0 selects the
	// default of 1, positive as given). HTTP error statuses are not
	// retried — the server answered. Both page and asset fetches share
	// these semantics.
	Retries int
	// Policy configures backoff, per-host retry budgets, and the per-host
	// circuit breaker shared by every fetch (see internal/retry). The zero
	// value backs off at the default schedule with budget and breaker
	// disabled.
	Policy retry.Policy
	// Metrics, when set, receives crawl accounting: pages fetched, live
	// pages, retries, timeouts, failures, redirects followed, fetch
	// latency, and worker-pool depth. Per-host failure/retry maps are
	// exposed as registry values and via HostFailures/HostRetries; the
	// retry layer reports under crawler.retry.* and crawler.breaker.*.
	Metrics *obs.Registry
	// Events, when set, receives structured retry/failure events carrying
	// a "domain" attribute, which the provenance layer attributes to the
	// domain's evidence record (trace.Logger.AttachCollector). nil
	// disables event logging; nothing on the fetch path depends on it.
	Events *trace.Logger

	statsOnce sync.Once
	stats     *crawlStats

	retrierOnce sync.Once
	rt          *retry.Retrier
}

// Retrier returns the crawler's shared retry/breaker state, built lazily
// from Policy (tests use it to assert breaker transitions).
func (c *Crawler) Retrier() *retry.Retrier {
	c.retrierOnce.Do(func() { c.rt = retry.New(c.Policy, "crawler", c.Metrics) })
	return c.rt
}

// crawlStats is the crawler's mutable accounting, created lazily so the
// zero-value Crawler literal keeps working.
type crawlStats struct {
	pages, live, failures, retries, timeouts, redirects, assetErrs *obs.Counter
	fetchMS                                                        *obs.Histogram
	inflight, pending                                              *obs.Gauge

	mu           sync.Mutex
	hostFailures map[string]int64
	hostRetries  map[string]int64
}

func (c *Crawler) statsInit() *crawlStats {
	c.statsOnce.Do(func() {
		reg := c.Metrics // nil-safe: handles stay live but unregistered
		c.stats = &crawlStats{
			pages:        reg.Counter("crawler.pages"),
			live:         reg.Counter("crawler.live"),
			failures:     reg.Counter("crawler.fetch.failures"),
			retries:      reg.Counter("crawler.fetch.retries"),
			timeouts:     reg.Counter("crawler.fetch.timeouts"),
			redirects:    reg.Counter("crawler.redirects"),
			assetErrs:    reg.Counter("crawler.asset_errors"),
			fetchMS:      reg.Histogram("crawler.fetch_ms", obs.MillisBuckets),
			inflight:     reg.Gauge("crawler.inflight"),
			pending:      reg.Gauge("crawler.pending"),
			hostFailures: map[string]int64{},
			hostRetries:  map[string]int64{},
		}
		reg.RegisterFunc("crawler.host_failures", func() any { return c.HostFailures() })
		reg.RegisterFunc("crawler.host_retries", func() any { return c.HostRetries() })
	})
	return c.stats
}

func (s *crawlStats) recordHostFailure(host string) {
	s.failures.Inc()
	s.mu.Lock()
	s.hostFailures[host]++
	s.mu.Unlock()
}

func (s *crawlStats) recordHostRetry(host string) {
	s.retries.Inc()
	s.mu.Lock()
	s.hostRetries[host]++
	s.mu.Unlock()
}

// HostFailures returns a copy of the per-host page-fetch failure counts
// (transport errors after retries, or HTTP >= 400 on the initial page).
func (c *Crawler) HostFailures() map[string]int64 {
	s := c.statsInit()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.hostFailures))
	for k, v := range s.hostFailures {
		out[k] = v
	}
	return out
}

// HostRetries returns a copy of the per-host retry counts.
func (c *Crawler) HostRetries() map[string]int64 {
	s := c.statsInit()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.hostRetries))
	for k, v := range s.hostRetries {
		out[k] = v
	}
	return out
}

func (c *Crawler) workers() int {
	if c.Workers <= 0 {
		return 16
	}
	return c.Workers
}

func (c *Crawler) maxRedirects() int {
	if c.MaxRedirects <= 0 {
		return 5
	}
	return c.MaxRedirects
}

func (c *Crawler) noise() float64 {
	if c.NoiseLevel < 0 {
		return 0
	}
	if c.NoiseLevel == 0 {
		return 0.002
	}
	return c.NoiseLevel
}

func (c *Crawler) bodyLimit() int64 {
	if c.MaxBodyBytes <= 0 {
		return 1 << 20
	}
	return c.MaxBodyBytes
}

func (c *Crawler) retries() int { return retry.Resolve(c.Retries, 1) }

// Crawl visits every domain with both profiles using the worker pool.
// Results are returned in input order. visit, when non-nil, runs on the
// worker right after both profiles of domains[i] are captured, with a
// pointer to results[i]; it may edit the result (drop its Shots, say) and
// must be safe for concurrent calls on distinct indices.
func (c *Crawler) Crawl(ctx context.Context, domains []string, visit func(i int, r *Result)) ([]Result, error) {
	st := c.statsInit()
	ctx, span := obs.StartSpan(ctx, "crawler.crawl")
	span.SetAttr("domains", fmt.Sprint(len(domains)))
	start := time.Now()
	defer func() {
		span.SetAttr("elapsed", time.Since(start).Round(time.Millisecond).String())
		span.End()
	}()

	results := make([]Result, len(domains))
	jobs := make(chan int)
	var wg sync.WaitGroup
	st.pending.Set(float64(len(domains)))
	for w := 0; w < c.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				st.inflight.Add(1)
				d := domains[i]
				results[i] = Result{
					Domain: d,
					Web:    c.CaptureProfile(ctx, d, false),
					Mobile: c.CaptureProfile(ctx, d, true),
				}
				st.inflight.Add(-1)
				if visit != nil {
					visit(i, &results[i])
				}
			}
		}()
	}
	for i := range domains {
		select {
		case jobs <- i:
			st.pending.Add(-1)
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			st.pending.Set(0)
			span.Fail(ctx.Err())
			return results, ctx.Err()
		}
	}
	close(jobs)
	wg.Wait()
	return results, nil
}

// CaptureProfile fetches one domain with one profile, following redirects
// and rendering the screenshot.
func (c *Crawler) CaptureProfile(ctx context.Context, domain string, mobile bool) Capture {
	st := c.statsInit()
	st.pages.Inc()
	cap := Capture{Domain: domain, RedirectChain: []string{domain}}
	ua := WebUA
	if mobile {
		ua = MobileUA
	}

	url := "http://" + domain + "/"
	for hop := 0; ; hop++ {
		body, status, location, err := c.fetchPage(ctx, url, ua, st)
		cap.StatusCode = status
		if err != nil || status >= 400 {
			// One failure per page fetch, however many retries it took.
			st.recordHostFailure(hostOf(url))
			attrs := []trace.Attr{trace.String("domain", hostOf(url)), trace.Int("status", status)}
			if err != nil {
				attrs = append(attrs, trace.String("error", err.Error()))
			}
			c.Events.Warn("crawler.fetch.failed", attrs...)
			return cap
		}
		if status >= 300 && location != "" {
			if hop >= c.maxRedirects() {
				return cap
			}
			st.redirects.Inc()
			url = absoluteURL(url, location)
			host := hostOf(url)
			cap.RedirectChain = append(cap.RedirectChain, host)
			continue
		}
		cap.Live = true
		cap.HTML = body
		cap.FinalHost = hostOf(url)
		cap.FinalURL = url
		break
	}
	st.live.Inc()

	// Fetch referenced image assets from the final host (the crawler's
	// second round of requests, like a browser loading subresources).
	// Assets resolve against the final URL — preserving the scheme an
	// https redirect landed on — and go through the same retry and
	// accounting path as page fetches.
	page := htmlx.Extract(cap.HTML)
	for _, img := range page.Images {
		if img.Src == "" || !strings.HasPrefix(img.Src, "/") {
			continue
		}
		body, status, _, err := c.fetchPage(ctx, absoluteURL(cap.FinalURL, img.Src), ua, st)
		if err != nil || status != 200 {
			st.assetErrs.Inc()
			continue
		}
		if cap.Assets == nil {
			cap.Assets = map[string]string{}
		}
		cap.Assets[img.Src] = body
	}

	if !c.SkipRender {
		cap.rendered = true
		if n := c.noise(); n > 0 {
			cap.noiseLevel = n
			// Per-(domain, profile) deterministic capture noise.
			seed := uint64(1)
			for i := 0; i < len(domain); i++ {
				seed = seed*1099511628211 ^ uint64(domain[i])
			}
			if mobile {
				seed ^= 0x5a5a
			}
			cap.noiseSeed = seed
		}
		cap.Shot = render.RenderPage(page, cap.renderOptions())
	}
	return cap
}

// fetchPage fetches one URL with retry-on-transport-error semantics: an
// HTTP response of any status is definitive, but a connection or timeout
// error is re-attempted up to Retries times — with capped, jittered
// backoff between attempts — subject to the host's retry budget and
// circuit breaker, with per-host retry/timeout accounting and a latency
// observation per attempt. HTTP >= 500 counts against the host's breaker
// (the host is unhealthy) but is still returned, not retried.
func (c *Crawler) fetchPage(ctx context.Context, url, ua string, st *crawlStats) (body string, status int, location string, err error) {
	host := hostOf(url)
	rt := c.Retrier()
	for attempt := 0; ; attempt++ {
		if err := rt.Allow(host); err != nil {
			return "", 0, "", fmt.Errorf("fetch %s: %w", host, err)
		}
		start := time.Now()
		body, status, location, err = c.fetch(ctx, url, ua)
		st.fetchMS.ObserveSince(start)
		if err == nil {
			rt.Report(host, status < 500)
			return body, status, location, nil
		}
		if retry.IsTimeout(err) {
			st.timeouts.Inc()
		}
		rt.Report(host, false)
		if attempt >= c.retries() || ctx.Err() != nil {
			return body, status, location, err
		}
		if !rt.GrantRetry(host) {
			return body, status, location, err
		}
		st.recordHostRetry(host)
		c.Events.Warn("crawler.fetch.retry",
			trace.String("domain", host), trace.Int("attempt", attempt+1), trace.String("error", err.Error()))
		if werr := rt.Wait(ctx, url, attempt+1); werr != nil {
			return body, status, location, err
		}
	}
}

// fetch performs one GET, returning body, status and redirect location.
func (c *Crawler) fetch(ctx context.Context, url, ua string) (body string, status int, location string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", 0, "", err
	}
	req.Header.Set("User-Agent", ua)
	resp, err := c.Client.Do(req)
	if err != nil {
		return "", 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, c.bodyLimit()))
	if err != nil {
		return "", resp.StatusCode, "", err
	}
	return string(b), resp.StatusCode, resp.Header.Get("Location"), nil
}

// hostOf extracts the host from an http URL.
func hostOf(url string) string {
	s := strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	return strings.ToLower(s)
}

// schemeOf extracts the scheme of an http(s) URL.
func schemeOf(url string) string {
	if strings.HasPrefix(url, "https://") {
		return "https"
	}
	return "http"
}

// hostPortOf extracts host[:port] from an http URL, unlike hostOf keeping
// any port so resolved URLs stay routable.
func hostPortOf(url string) string {
	s := strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return strings.ToLower(s)
}

// absoluteURL resolves a Location header or asset path against the
// current URL, preserving the current scheme and port for relative
// targets (a relative redirect on an https page must stay https).
func absoluteURL(current, location string) string {
	if strings.HasPrefix(location, "http://") || strings.HasPrefix(location, "https://") {
		return location
	}
	base := schemeOf(current) + "://" + hostPortOf(current)
	if strings.HasPrefix(location, "/") {
		return base + location
	}
	return base + "/" + location
}

// SnapshotDates are the paper's four crawl dates (§3.2).
var SnapshotDates = []string{"April 01", "April 08", "April 22", "April 29"}

// DayOfSnapshot converts a snapshot index to a day offset from the first
// crawl, used by the blacklist latency model.
func DayOfSnapshot(snap int) int {
	days := []int{0, 7, 21, 28}
	if snap < 0 || snap >= len(days) {
		return 0
	}
	return days[snap]
}

// String implements fmt.Stringer for quick logging.
func (r Result) String() string {
	return fmt.Sprintf("%s web(live=%v) mobile(live=%v)", r.Domain, r.Web.Live, r.Mobile.Live)
}
