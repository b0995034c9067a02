package whois

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"squatphi/internal/obs"
	"squatphi/internal/retry"
)

// hungServer accepts connections and holds them open without ever
// responding or closing — the wire behaviour of an overloaded registry.
func hungServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, conn)
		}
	}()
	return ln.Addr().String()
}

// TestLookupHungServerTimesOut is the regression test for the whois
// deadline fix: a server that accepts and never answers must cost at most
// the attempt timeout and be accounted as a timeout, not stall the caller.
func TestLookupHungServerTimesOut(t *testing.T) {
	reg := obs.NewRegistry()
	c := &Client{Timeout: 80 * time.Millisecond, Retries: -1, Metrics: reg}
	start := time.Now()
	_, err := c.Lookup(context.Background(), hungServer(t), "mobile-adp.com")
	if err == nil || errors.Is(err, ErrNoMatch) {
		t.Fatalf("hung server returned %v, want a transport error", err)
	}
	if !retry.IsTimeout(err) {
		t.Fatalf("hung-server error %v is not a timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("lookup took %v, the deadline did not bound the attempt", d)
	}
	s := reg.Snapshot()
	if s.Counters["whois.timeouts"] != 1 || s.Counters["whois.neterrors"] != 0 {
		t.Errorf("timeouts=%d neterrors=%d, want 1/0", s.Counters["whois.timeouts"], s.Counters["whois.neterrors"])
	}
	if s.Counters["whois.lookups"] != 1 {
		t.Errorf("lookups = %d, want 1", s.Counters["whois.lookups"])
	}
}

// TestLookupPartialRecordIsAnError is the regression test for the
// mid-record failure fix: a connection that delivers half a record and
// then stalls must surface as a transport error — the old client treated
// any read error as end-of-record and silently parsed the fragment.
func TestLookupPartialRecordIsAnError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				_, _ = bufio.NewReader(conn).ReadString('\n')
				_, _ = conn.Write([]byte("Domain Name: MOBILE-ADP.COM\nCreation Date: 2017-01-01"))
				// Hold the connection open — no close, no more data — until
				// the test ends, so the client's read deadline must fire.
				<-done
			}(conn)
		}
	}()

	c := &Client{Timeout: 80 * time.Millisecond, Retries: -1}
	rec, err := c.Lookup(context.Background(), ln.Addr().String(), "mobile-adp.com")
	if err == nil {
		t.Fatalf("truncated record silently parsed as %+v", rec)
	}
	if errors.Is(err, ErrNoMatch) {
		t.Fatalf("truncated record misreported as no-match: %v", err)
	}
}

// TestLookupRetryThenSuccess resets the first connection (RST via
// SetLinger(0)) and serves the record on the second: the client must
// classify the reset as a network error, retry once, and succeed.
func TestLookupRetryThenSuccess(t *testing.T) {
	want := Record{Domain: "mobile-adp.com", Created: 2017, Registrar: "godaddy.com"}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	first := true
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			reset := first
			first = false
			mu.Unlock()
			if reset {
				if tc, ok := conn.(*net.TCPConn); ok {
					_ = tc.SetLinger(0) // close sends RST, not FIN
				}
				conn.Close()
				continue
			}
			go func(conn net.Conn) {
				defer conn.Close()
				line, _ := bufio.NewReader(conn).ReadString('\n')
				if strings.TrimSpace(line) != want.Domain {
					return
				}
				_, _ = conn.Write([]byte(Format(want)))
			}(conn)
		}
	}()

	reg := obs.NewRegistry()
	c := &Client{Timeout: time.Second, Metrics: reg}
	rec, err := c.Lookup(context.Background(), ln.Addr().String(), want.Domain)
	if err != nil {
		t.Fatalf("lookup after one reset: %v", err)
	}
	if rec != want {
		t.Fatalf("rec = %+v, want %+v", rec, want)
	}
	s := reg.Snapshot()
	if s.Counters["whois.retries"] != 1 {
		t.Errorf("retries = %d, want 1", s.Counters["whois.retries"])
	}
	if s.Counters["whois.neterrors"] != 1 || s.Counters["whois.timeouts"] != 0 {
		t.Errorf("neterrors=%d timeouts=%d, want 1/0: a reset is not a timeout",
			s.Counters["whois.neterrors"], s.Counters["whois.timeouts"])
	}
}
