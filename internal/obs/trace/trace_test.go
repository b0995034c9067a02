package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Sampled reports whether domain falls in the 1-in-N head sample, over
// the string view of the hash the scan path computes on bytes.
func (c *Collector) Sampled(domain string) bool {
	if c == nil || c.sampleEvery == 0 {
		return false
	}
	if c.sampleMask != 0 {
		return fnv1a(domain)&c.sampleMask == 0
	}
	return fnv1a(domain)%c.sampleEvery == 0
}

// newEventLog is the event log cmd/squatphi builds for -events, routed
// through EventHandler into col.
func newEventLog(w io.Writer, min slog.Level, col *Collector) *slog.Logger {
	return slog.New(EventHandler(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: min}), col))
}

func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	log := newEventLog(&buf, slog.LevelDebug, nil)

	log.Info("scan.started", slog.Int("records", 10), slog.String("mode", "full"))
	log.With("component", "crawler").Warn("crawler.fetch.retry", slog.String("domain", "a.com"))

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if line["msg"] != "scan.started" || line["level"] != "INFO" || line["records"] != float64(10) || line["mode"] != "full" {
		t.Errorf("line 0 = %v", line)
	}
	if _, ok := line["component"]; ok {
		t.Errorf("line 0 has a component it was not given: %v", line)
	}
	line = nil
	if err := json.Unmarshal([]byte(lines[1]), &line); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if line["component"] != "crawler" || line["level"] != "WARN" || line["domain"] != "a.com" {
		t.Errorf("line 1 = %v", line)
	}
}

func TestLoggerLevelFilterAndNil(t *testing.T) {
	var buf bytes.Buffer
	col := NewCollector(1)
	log := newEventLog(&buf, slog.LevelWarn, col)
	log.Debug("drop.debug", slog.String("domain", "a.com"))
	log.Info("drop.info", slog.String("domain", "a.com"))
	log.Error("keep.error", slog.String("domain", "a.com"))
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Errorf("wrote %d events, want 1 (level filter): %q", n, buf.String())
	}
	// The sink's level filter binds the attribution too.
	if evs := col.EventsFor("a.com"); len(evs) != 1 || evs[0].Name != "keep.error" || evs[0].Level != "error" {
		t.Errorf("attributed %+v, want the one error event", evs)
	}

	// A nil collector attributes nothing but still forwards every record.
	buf.Reset()
	nilCol := newEventLog(&buf, slog.LevelDebug, nil).With("component", "x")
	nilCol.WithGroup("g").Warn("kept.event", slog.String("domain", "a.com"))
	if !strings.Contains(buf.String(), `"msg":"kept.event"`) {
		t.Errorf("nil-collector handler dropped the record: %q", buf.String())
	}
}

func TestLoggerEventAttribution(t *testing.T) {
	col := NewCollector(1)
	log := newEventLog(io.Discard, slog.LevelDebug, col) // no sink: attribution must still work
	crawl := log.With("component", "crawler", "run", 7)

	crawl.Warn("crawler.fetch.retry", slog.String("domain", "bad.com"), slog.Int("attempt", 2))
	crawl.Warn("crawler.fetch.retry", slog.Int("attempt", 3)) // no domain attr: not attributed
	log.Info("core.detect.flagged", "domain", "bad.com", "web_score", 0.75)

	evs := col.EventsFor("bad.com")
	if len(evs) != 2 {
		t.Fatalf("EventsFor = %d events, want 2", len(evs))
	}
	retry := Event{Level: "warn", Component: "crawler", Name: "crawler.fetch.retry",
		Attrs: map[string]any{"domain": "bad.com", "attempt": int64(2), "run": int64(7)}}
	flagged := Event{Level: "info", Name: "core.detect.flagged",
		Attrs: map[string]any{"domain": "bad.com", "web_score": 0.75}}
	if !reflect.DeepEqual(evs[0], retry) || !reflect.DeepEqual(evs[1], flagged) {
		t.Errorf("attributed events = %+v, want %+v then %+v", evs, retry, flagged)
	}
	// Records carry no wall time: the attributed form has no time key.
	b, err := json.Marshal(evs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"level":"warn","component":"crawler","event":"crawler.fetch.retry","attrs":{"attempt":2,"domain":"bad.com","run":7}}`; string(b) != want {
		t.Errorf("attributed JSON = %s, want %s", b, want)
	}
}

func TestCollectorSamplingIsHashBased(t *testing.T) {
	col := NewCollector(4)
	domains := []string{"a.com", "b.com", "c.com", "d.com", "e.com", "f.com", "g.com", "h.com"}

	// The sampled subset must depend only on the domain name, never on
	// call order — that is what makes provenance worker-count-invariant.
	var want []string
	for _, d := range domains {
		if col.Sampled(d) {
			want = append(want, d)
		}
	}
	for i := len(domains) - 1; i >= 0; i-- { // reversed order
		col.ObserveScanBytes([]byte(domains[i]), false)
	}
	marks := col.ScanMarks()
	var got []string
	for _, m := range marks {
		got = append(got, m.Domain)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("sampled %v, want %v", got, want)
	}
	sampled, matched := col.ScanStats()
	if int(sampled) != len(want) || matched != 0 {
		t.Errorf("ScanStats = (%d, %d), want (%d, 0)", sampled, matched, len(want))
	}
}

func TestCollectorSamplingDisabled(t *testing.T) {
	col := NewCollector(-1)
	col.ObserveScanBytes([]byte("a.com"), true)
	if s, _ := col.ScanStats(); s != 0 {
		t.Errorf("disabled sampling still observed %d scans", s)
	}
	// Records and events must still work with sampling off.
	col.Put(&Record{Schema: SchemaVersion, Domain: "a.com"})
	if _, ok := col.Get("a.com"); !ok {
		t.Error("Put/Get broken with sampling disabled")
	}

	var nilCol *Collector
	nilCol.ObserveScanBytes([]byte("a.com"), true)
	nilCol.Put(&Record{Domain: "x"})
	if nilCol.Sampled("a.com") {
		t.Error("nil collector sampled a domain")
	}
}

func TestCollectorRecordsSorted(t *testing.T) {
	col := NewCollector(0)
	for _, d := range []string{"zeta.com", "alpha.com", "mid.com"} {
		col.Put(&Record{Schema: SchemaVersion, Domain: d})
	}
	recs := col.Records()
	if len(recs) != 3 || recs[0].Domain != "alpha.com" || recs[2].Domain != "zeta.com" {
		t.Errorf("Records not sorted: %v", recs)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	col := NewCollector(2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := string(rune('a'+w)) + ".com"
				col.ObserveScanBytes([]byte(d), i%2 == 0)
				col.AddEvent(d, Event{Name: "x.y"})
				col.Put(&Record{Schema: SchemaVersion, Domain: d})
			}
		}(w)
	}
	wg.Wait()
	if len(col.Records()) != 8 {
		t.Errorf("Records = %d, want 8", len(col.Records()))
	}
}

func TestStoreRoundTrip(t *testing.T) {
	col := NewCollector(4)
	for _, d := range []string{"a.com", "b.com", "c.com", "d.com", "e.com", "f.com"} {
		col.ObserveScanBytes([]byte(d), true)
	}
	rec := &Record{
		Schema: SchemaVersion,
		Domain: "pypal.com",
		Matcher: &MatcherEvidence{
			Rule: "typo.edit_table", Type: "typo", Brand: "paypal.com",
			Label: "pypal", TLD: "com", Skeleton: "pypal", BrandSkeleton: "paypal",
			EditDistance: 1,
		},
		Cache: &CacheEvidence{Source: "fresh", Epoch: 1, Fingerprint: "00deadbeef00cafe"},
		Profiles: []ProfileEvidence{{
			Profile: "web",
			Crawl:   &CrawlEvidence{Live: true, StatusCode: 200},
			ML:      &MLEvidence{Score: 0.875, Trees: 10, VotesFor: 9, Margin: 0.8, Dim: 32},
			Verdict: &VerdictEvidence{Flagged: true, Score: 0.875, Confirmed: true},
		}},
	}
	col.Put(rec)

	var buf bytes.Buffer
	if err := col.WriteStore(&buf); err != nil {
		t.Fatalf("WriteStore: %v", err)
	}
	st, err := ReadStore(&buf)
	if err != nil {
		t.Fatalf("ReadStore: %v", err)
	}
	if st.SampleEvery != 4 {
		t.Errorf("SampleEvery = %d, want 4", st.SampleEvery)
	}
	if len(st.Records) != 1 {
		t.Fatalf("Records = %d, want 1", len(st.Records))
	}
	got, ok := st.Lookup("pypal.com")
	if !ok {
		t.Fatal("Lookup miss")
	}
	wantJSON, _ := json.Marshal(rec)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("record round-trip mismatch:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if len(st.Marks) == 0 {
		t.Error("no scan marks survived the round trip")
	}
}

func TestReadStoreRejectsGarbage(t *testing.T) {
	if _, err := ReadStore(strings.NewReader("not gzip")); err == nil {
		t.Error("plain text accepted")
	}
}

func TestRenderDeterministic(t *testing.T) {
	rec := &Record{
		Schema: SchemaVersion,
		Domain: "pypal.com",
		Matcher: &MatcherEvidence{
			Rule: "typo.edit_table", Type: "typo", Brand: "paypal.com",
			Label: "pypal", TLD: "com", Skeleton: "pypal", BrandSkeleton: "paypal",
			EditDistance: 1,
		},
		Cache: &CacheEvidence{Source: "cache", Epoch: 2, Fingerprint: "00deadbeef00cafe"},
		Profiles: []ProfileEvidence{{
			Profile: "web",
			Crawl:   &CrawlEvidence{Live: true, StatusCode: 200, Redirects: 1, FinalHost: "pypal.com"},
			ML:      &MLEvidence{Score: 0.875, Trees: 10, VotesFor: 9, Margin: 0.8, Dim: 32},
			Verdict: &VerdictEvidence{Flagged: true, Score: 0.875, Confirmed: true},
		}},
		Events: []Event{{Level: "warn", Component: "crawler", Name: "crawler.fetch.retry",
			Attrs: map[string]any{"domain": "pypal.com", "attempt": 2}}},
	}
	want := `domain: pypal.com
matcher: rule=typo.edit_table type=typo brand=paypal.com label=pypal tld=com skeleton=pypal brand_skeleton=paypal edit_distance=1
cache: source=cache epoch=2 fingerprint=00deadbeef00cafe
profile web:
  crawl: live=true status=200 redirects=1 final_host=pypal.com retries=0 failures=0
  ml: score=0.875 trees=10 votes_for=9 margin=0.8 dim=32 nonzero=0
  verdict: FLAGGED score=0.875 confirmed=true
events: 1
  [warn] crawler crawler.fetch.retry attempt=2 domain=pypal.com
`
	if got := rec.Render(); got != want {
		t.Errorf("Render mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got := rec.Render(); got != want {
		t.Error("Render not stable across calls")
	}
}

func TestVerdictHandler(t *testing.T) {
	rec := &Record{Schema: SchemaVersion, Domain: "a.com",
		Matcher: &MatcherEvidence{Rule: "none", Type: "none", Label: "a", TLD: "com", Skeleton: "a", EditDistance: -1}}
	h := VerdictHandler(func(d string) (*Record, bool) {
		if d == "a.com" {
			return rec, true
		}
		return nil, false
	})

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/verdict?domain=a.com", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	var got Record
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if got.Domain != "a.com" {
		t.Errorf("domain = %q", got.Domain)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/verdict?domain=a.com&format=text", nil))
	if rr.Code != 200 || !strings.HasPrefix(rr.Body.String(), "domain: a.com\n") {
		t.Errorf("text format: status=%d body=%q", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/verdict?domain=miss.com", nil))
	if rr.Code != 404 {
		t.Errorf("miss status = %d, want 404", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/verdict", nil))
	if rr.Code != 400 {
		t.Errorf("no-domain status = %d, want 400", rr.Code)
	}
}
