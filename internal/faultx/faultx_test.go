package faultx

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"squatphi/internal/obs"
)

// UDPFault returns the name of the UDP-side fault that fires for
// (key, attempt): "drop", "dup", "stale_id", "truncate", "corrupt", or
// "none". See HTTPFault.
func (f Faults) UDPFault(key string, attempt int) string {
	return f.udpDecide(key, attempt).kind.String()
}

func TestDecisionsDeterministic(t *testing.T) {
	f := Faults{Seed: 11, DropProb: 0.3, ResetProb: 0.2, HTTP5xxProb: 0.2, SlowBodyProb: 0.1,
		DupProb: 0.2, StaleIDProb: 0.2, TruncateProb: 0.1, CorruptProb: 0.1}
	g := Faults{Seed: 11, DropProb: 0.3, ResetProb: 0.2, HTTP5xxProb: 0.2, SlowBodyProb: 0.1,
		DupProb: 0.2, StaleIDProb: 0.2, TruncateProb: 0.1, CorruptProb: 0.1}
	for attempt := 0; attempt < 50; attempt++ {
		for _, key := range []string{"a.test/", "b.test/x", "c"} {
			if f.HTTPFault(key, attempt) != g.HTTPFault(key, attempt) {
				t.Fatalf("http decision for (%q, %d) not deterministic", key, attempt)
			}
			if f.UDPFault(key, attempt) != g.UDPFault(key, attempt) {
				t.Fatalf("udp decision for (%q, %d) not deterministic", key, attempt)
			}
		}
	}
}

func TestDecisionsVaryBySeedAndSide(t *testing.T) {
	a := Faults{Seed: 1, DropProb: 0.5}
	b := Faults{Seed: 2, DropProb: 0.5}
	diffSeed, diffSide := false, false
	for attempt := 0; attempt < 64; attempt++ {
		if a.HTTPFault("k", attempt) != b.HTTPFault("k", attempt) {
			diffSeed = true
		}
		if a.HTTPFault("k", attempt) != a.UDPFault("k", attempt) {
			diffSide = true
		}
	}
	if !diffSeed {
		t.Error("fault stream identical across seeds")
	}
	if !diffSide {
		t.Error("http and udp streams of the same key are correlated")
	}
}

func TestMaxFaultsPerKeyCapsInjection(t *testing.T) {
	f := Faults{Seed: 3, DropProb: 1, MaxFaultsPerKey: 2}
	for attempt := 0; attempt < 2; attempt++ {
		if got := f.HTTPFault("k", attempt); got != "drop" {
			t.Fatalf("attempt %d: fault = %q, want drop", attempt, got)
		}
	}
	for attempt := 2; attempt < 6; attempt++ {
		if got := f.HTTPFault("k", attempt); got != "none" {
			t.Fatalf("capped attempt %d: fault = %q, want none", attempt, got)
		}
	}
}

// stubRT answers every request with a fixed 200 body.
type stubRT struct{ calls int }

func (s *stubRT) RoundTrip(req *http.Request) (*http.Response, error) {
	s.calls++
	return &http.Response{
		StatusCode: 200, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Body: io.NopCloser(strings.NewReader("hello fault injection body")), Request: req,
	}, nil
}

func mustReq(t *testing.T, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestTransportDropIsTimeout(t *testing.T) {
	inner := &stubRT{}
	reg := obs.NewRegistry()
	tr := NewTransport(inner, Faults{Seed: 9, DropProb: 1}, reg)
	_, err := tr.RoundTrip(mustReq(t, "http://h.test/"))
	if err == nil {
		t.Fatal("dropped request returned a response")
	}
	if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("drop error %v is not a net.Error timeout", err)
	}
	if inner.calls != 0 {
		t.Error("dropped request reached the inner transport")
	}
	if reg.Counter("faultx.http.drop").Value() != 1 {
		t.Error("drop counter not incremented")
	}
	if n := tr.attempts["h.test/"]; n != 1 {
		t.Errorf("attempts = %d, want 1", n)
	}
}

func TestTransportResetIsNotTimeout(t *testing.T) {
	tr := NewTransport(&stubRT{}, Faults{Seed: 9, ResetProb: 1}, nil)
	_, err := tr.RoundTrip(mustReq(t, "http://h.test/"))
	if err == nil {
		t.Fatal("reset request returned a response")
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("reset error %v reports Timeout(), must be a non-timeout transport error", err)
	}
}

func TestTransport5xxAndSlowBody(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTransport(&stubRT{}, Faults{Seed: 9, HTTP5xxProb: 1}, reg)
	resp, err := tr.RoundTrip(mustReq(t, "http://h.test/"))
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("5xx fault: resp=%v err=%v", resp, err)
	}
	resp.Body.Close()

	tr = NewTransport(&stubRT{}, Faults{Seed: 9, SlowBodyProb: 1, SlowChunk: 4, SlowChunkDelay: time.Microsecond}, reg)
	resp, err = tr.RoundTrip(mustReq(t, "http://h.test/"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "hello fault injection body" {
		t.Fatalf("slow body = %q err=%v, want full payload", body, err)
	}
	if reg.Counter("faultx.http.slow_body").Value() != 1 {
		t.Error("slow_body counter not incremented")
	}
}

// udpEchoPair starts a UDP echo server and returns a faulty client conn.
func udpEchoPair(t *testing.T, f Faults, reg *obs.Registry) *Conn {
	t.Helper()
	srv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	go func() {
		buf := make([]byte, 2048)
		for {
			n, addr, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			_, _ = srv.WriteTo(buf[:n], addr)
		}
	}()
	raw, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	return WrapConn(raw, f, nil, reg)
}

var testPkt = []byte{0xAB, 0xCD, 'p', 'a', 'y', 'l', 'o', 'a', 'd', '0', '1', '2'}

func TestConnDropSwallowsDatagram(t *testing.T) {
	reg := obs.NewRegistry()
	c := udpEchoPair(t, Faults{Seed: 21, DropProb: 1}, reg)
	if _, err := c.Write(testPkt); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 2048)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read after dropped write returned data")
	}
	if reg.Counter("faultx.udp.drop").Value() != 1 {
		t.Error("drop counter not incremented")
	}
}

func TestConnStaleIDThenRealResponse(t *testing.T) {
	reg := obs.NewRegistry()
	c := udpEchoPair(t, Faults{Seed: 21, StaleIDProb: 1}, reg)
	if _, err := c.Write(testPkt); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 2048)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] == testPkt[0] && buf[1] == testPkt[1] {
		t.Fatalf("first datagram has the true ID %x, want corrupted", buf[:2])
	}
	if string(buf[2:n]) != string(testPkt[2:]) {
		t.Error("stale replay corrupted the payload beyond the ID")
	}
	n, err = c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != string(testPkt) {
		t.Fatalf("second datagram = %x, want the real response", buf[:n])
	}
	if reg.Counter("faultx.udp.stale_id").Value() != 1 {
		t.Error("stale counter not incremented")
	}
}

func TestConnDupTruncateCorrupt(t *testing.T) {
	reg := obs.NewRegistry()
	c := udpEchoPair(t, Faults{Seed: 21, DupProb: 1}, reg)
	if _, err := c.Write(testPkt); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	for i := 0; i < 2; i++ {
		n, err := c.Read(buf)
		if err != nil || string(buf[:n]) != string(testPkt) {
			t.Fatalf("dup read %d = %x err=%v", i, buf[:n], err)
		}
	}

	c = udpEchoPair(t, Faults{Seed: 21, TruncateProb: 1}, reg)
	if _, err := c.Write(testPkt); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	n, err := c.Read(buf)
	if err != nil || n != len(testPkt)/2 {
		t.Fatalf("truncated read n=%d err=%v, want %d", n, err, len(testPkt)/2)
	}

	c = udpEchoPair(t, Faults{Seed: 21, CorruptProb: 1}, reg)
	if _, err := c.Write(testPkt); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	n, err = c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) == string(testPkt) {
		t.Error("corrupt fault delivered an unmodified datagram")
	}
	if buf[0] != testPkt[0] || buf[1] != testPkt[1] {
		t.Error("corrupt fault touched the 2-byte ID prefix")
	}
}
