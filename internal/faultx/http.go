package faultx

import (
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"

	"squatphi/internal/obs"
)

// timeoutError is the transport error produced by a dropped request. It
// satisfies net.Error with Timeout() == true, like a real client timeout,
// without spending the wall-clock wait.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultx: injected timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var _ net.Error = timeoutError{}

// Transport wraps an http.RoundTripper with seeded fault injection. The
// fault key of a request is its URL host+path, so every retry of the same
// page advances that page's attempt counter deterministically.
type Transport struct {
	inner http.RoundTripper
	f     Faults

	drops, resets, fivexx, slows, delays *obs.Counter

	mu       sync.Mutex
	attempts map[string]int
}

// NewTransport wraps inner (nil selects http.DefaultTransport) with the
// given fault mix, reporting injected faults under faultx.http.* in reg
// (which may be nil).
func NewTransport(inner http.RoundTripper, f Faults, reg *obs.Registry) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		inner:    inner,
		f:        f,
		drops:    reg.Counter("faultx.http.drop"),
		resets:   reg.Counter("faultx.http.reset"),
		fivexx:   reg.Counter("faultx.http.5xx"),
		slows:    reg.Counter("faultx.http.slow_body"),
		delays:   reg.Counter("faultx.http.delay"),
		attempts: map[string]int{},
	}
}

// RoundTrip implements http.RoundTripper with fault injection.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.Host + req.URL.Path
	t.mu.Lock()
	n := t.attempts[key]
	t.attempts[key]++
	t.mu.Unlock()

	d := t.f.httpDecide(key, n)
	if d.delay && t.f.Delay > 0 {
		t.delays.Inc()
		time.Sleep(t.f.Delay)
	}
	switch d.kind {
	case faultDrop:
		t.drops.Inc()
		return nil, timeoutError{}
	case faultReset:
		t.resets.Inc()
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	case faultHTTP5xx:
		t.fivexx.Inc()
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Retry-After": []string{"1"}},
			Body:    io.NopCloser(strings.NewReader("injected 503 burst")),
			Request: req,
		}, nil
	}
	resp, err := t.inner.RoundTrip(req)
	if err == nil && d.kind == faultSlowBody {
		t.slows.Inc()
		resp.Body = &slowBody{
			inner: resp.Body,
			chunk: t.f.slowChunk(),
			delay: t.f.slowChunkDelay(),
		}
	}
	return resp, err
}

// slowBody trickles reads chunk bytes at a time with a delay before each
// chunk: a bounded slow-loris response body.
type slowBody struct {
	inner io.ReadCloser
	chunk int
	delay time.Duration
}

func (s *slowBody) Read(p []byte) (int, error) {
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	time.Sleep(s.delay)
	return s.inner.Read(p)
}

func (s *slowBody) Close() error { return s.inner.Close() }
