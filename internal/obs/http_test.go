package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dnsx.server.queries").Add(5)
	reg.Histogram("probe.rtt_ms", nil).Observe(1.5)

	srv := httptest.NewServer(NewMux(reg))
	defer srv.Close()

	t.Run("metrics", func(t *testing.T) {
		var snap Snapshot
		getJSON(t, srv.URL+"/metrics", &snap)
		if snap.Counters["dnsx.server.queries"] != 5 {
			t.Errorf("counters = %v", snap.Counters)
		}
		if snap.Histograms["probe.rtt_ms"].Count != 1 {
			t.Errorf("histograms = %v", snap.Histograms)
		}
		if snap.Gauges["runtime.goroutines"] < 1 {
			t.Errorf("runtime samples missing from gauges: %v", snap.Gauges)
		}
	})

	t.Run("index", func(t *testing.T) {
		body := get(t, srv.URL+"/")
		if !strings.Contains(body, "/metrics") || !strings.Contains(body, "/debug/pprof") {
			t.Errorf("index missing routes: %q", body)
		}
	})

	t.Run("pprof", func(t *testing.T) {
		body := get(t, srv.URL+"/debug/pprof/cmdline")
		if body == "" {
			t.Error("pprof cmdline empty")
		}
	})

	t.Run("notfound", func(t *testing.T) {
		resp, err := http.Get(srv.URL + "/nope")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status = %d, want 404", resp.StatusCode)
		}
	})
}

func TestNilMux(t *testing.T) {
	srv := httptest.NewServer(NewMux(nil))
	defer srv.Close()
	var snap Snapshot
	getJSON(t, srv.URL+"/metrics", &snap)
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Errorf("nil registry served metrics: %+v", snap)
	}
}

func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x").Inc()
	d, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var snap Snapshot
	getJSON(t, "http://"+d.Addr()+"/metrics", &snap)
	if snap.Counters["x"] != 1 {
		t.Errorf("served counters = %v", snap.Counters)
	}
}

// TestServerTimeoutsSet pins the hardening: every listener built through
// obs must carry the slowloris/read/idle bounds (the debug port used to
// ship a zero-value http.Server).
func TestServerTimeoutsSet(t *testing.T) {
	srv := NewServer(http.NewServeMux())
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v", srv.ReadHeaderTimeout)
	}
	if srv.ReadTimeout != ReadTimeout || srv.ReadTimeout <= 0 {
		t.Errorf("ReadTimeout = %v", srv.ReadTimeout)
	}
	if srv.IdleTimeout != IdleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (pprof streams)", srv.WriteTimeout)
	}
}

// TestGracefulShutdownDrainsInFlight: a request already being served when
// Shutdown begins must complete, not be dropped the way http.Server.Close
// used to drop it.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	d, err := Serve("127.0.0.1:0", NewRegistry(), Route{
		Pattern: "/slow",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
			io.WriteString(w, "done")
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + d.Addr() + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{body: string(b), err: err}
	}()

	<-entered
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- d.Shutdown(ctx)
	}()
	// Shutdown is now waiting on the in-flight handler; release it and
	// both the request and the shutdown must succeed.
	close(release)
	if r := <-got; r.err != nil || r.body != "done" {
		t.Fatalf("in-flight request dropped during shutdown: body=%q err=%v", r.body, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}

	// The listener is gone: new connections must be refused.
	if _, err := http.Get("http://" + d.Addr() + "/slow"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(get(t, url)), v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}
