// Package whois implements the domain-registration-intelligence substrate:
// an RFC 3912-style WHOIS server serving the synthetic world's registration
// records over TCP, a client, and the record text format.
//
// The paper pulls whois records for the 1,175 verified phishing domains to
// study registration times and registrars (Figure 16: most registered in
// the recent four years; godaddy.com the most common of 121 registrars, but
// only 738 domains expose registrar data). The reproduction serves the same
// fields — including the partial-data behaviour — over the real protocol:
// the client connects, writes the query line, and reads the record until
// EOF.
package whois

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"squatphi/internal/faultx"
	"squatphi/internal/obs"
	"squatphi/internal/retry"
)

// Record is one domain registration entry.
type Record struct {
	Domain    string
	Created   int    // registration year
	Registrar string // empty when the registry redacts it
}

// ErrNoMatch is returned when the server has no record for a domain.
var ErrNoMatch = errors.New("whois: no match")

// Format renders a record in classic whois key-value style.
func Format(r Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Domain Name: %s\n", strings.ToUpper(r.Domain))
	fmt.Fprintf(&b, "Creation Date: %d-01-01T00:00:00Z\n", r.Created)
	if r.Registrar != "" {
		fmt.Fprintf(&b, "Registrar: %s\n", r.Registrar)
	}
	b.WriteString(">>> Last update of whois database <<<\n")
	return b.String()
}

// Parse extracts a record from whois response text.
func Parse(text string) (Record, error) {
	var r Record
	found := false
	for _, line := range strings.Split(text, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		val = strings.TrimSpace(val)
		switch strings.ToLower(strings.TrimSpace(key)) {
		case "domain name":
			r.Domain = strings.ToLower(val)
			found = true
		case "creation date":
			if len(val) >= 4 {
				if y, err := strconv.Atoi(val[:4]); err == nil {
					r.Created = y
				}
			}
		case "registrar":
			r.Registrar = val
		}
	}
	if !found {
		return Record{}, ErrNoMatch
	}
	return r, nil
}

// Directory answers whois queries; the webworld adapter implements it.
type Directory interface {
	// WhoisRecord returns the record for a domain, or false if unknown.
	WhoisRecord(domain string) (Record, bool)
}

// Server is a whois server over TCP (RFC 3912: one query line per
// connection, response terminated by close).
type Server struct {
	dir Directory
	ln  net.Listener
}

// NewServer starts a whois server on a free loopback port.
func NewServer(dir Directory) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("whois: listen: %w", err)
	}
	s := &Server{dir: dir, ln: ln}
	go s.serve()
	return s, nil
}

// Addr returns the server's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.ln.Close() }

func (s *Server) serve() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil && line == "" {
		return
	}
	domain := strings.ToLower(strings.TrimSpace(line))
	rec, ok := s.dir.WhoisRecord(domain)
	if !ok {
		fmt.Fprintf(conn, "No match for %q.\n", domain)
		return
	}
	_, _ = conn.Write([]byte(Format(rec)))
}

// Client queries whois servers with per-attempt deadlines, classified
// error accounting, and retries with the default backoff schedule of
// internal/retry. A hung registry server costs at most Timeout
// per attempt instead of stalling a worker indefinitely, and a connection
// that dies mid-record surfaces as an error instead of being silently
// parsed as a (partial) record.
type Client struct {
	// Timeout bounds each lookup attempt end to end: dial, query write,
	// and the read-until-close loop share one deadline. Default 5s.
	Timeout time.Duration
	// Retries is the number of re-attempts after a transport error
	// (repository retry convention: negative disables, 0 selects the
	// default of 1, positive as given). A served record or a clean
	// "No match" answer is definitive and never retried.
	Retries int
	// Dial opens the TCP connection of one lookup attempt; nil selects
	// faultx.DialTimeout. Chaos tests interpose fault-injecting conn
	// wrappers here — the repository forbids direct net.Dial* outside
	// the transport layer (squatvet's transport analyzer) precisely so
	// this seam sees every outbound connection.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
	// Metrics, when set, receives whois.* accounting: lookups, retries,
	// timeouts vs other network errors, no-match answers, an RTT
	// histogram, and backoff delays in whois.retry.backoff_ms.
	Metrics *obs.Registry

	once sync.Once
	m    *clientMetrics
}

type clientMetrics struct {
	lookups, retries, timeouts, neterrors, nomatch *obs.Counter
	rttMS, backoffMS                               *obs.Histogram
}

func (c *Client) init() {
	c.once.Do(func() {
		reg := c.Metrics // nil-safe: handles stay live but unregistered
		c.m = &clientMetrics{
			lookups:   reg.Counter("whois.lookups"),
			retries:   reg.Counter("whois.retries"),
			timeouts:  reg.Counter("whois.timeouts"),
			neterrors: reg.Counter("whois.neterrors"),
			nomatch:   reg.Counter("whois.nomatch"),
			rttMS:     reg.Histogram("whois.rtt_ms", obs.MillisBuckets),
			backoffMS: reg.Histogram("whois.retry.backoff_ms", obs.MillisBuckets),
		}
	})
}

func (c *Client) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 5 * time.Second
	}
	return c.Timeout
}

// Lookup queries the whois server at addr for one domain, retrying
// transport failures per the client's policy.
func (c *Client) Lookup(ctx context.Context, addr, domain string) (Record, error) {
	c.init()
	c.m.lookups.Inc()
	retries := retry.Resolve(c.Retries, 1)
	for attempt := 0; ; attempt++ {
		start := time.Now()
		rec, err := c.lookupOnce(addr, domain)
		if err == nil || errors.Is(err, ErrNoMatch) {
			c.m.rttMS.ObserveSince(start)
			if err != nil {
				c.m.nomatch.Inc()
			}
			return rec, err
		}
		if retry.IsTimeout(err) {
			c.m.timeouts.Inc()
		} else {
			c.m.neterrors.Inc()
		}
		if attempt >= retries || ctx.Err() != nil {
			return Record{}, err
		}
		c.m.retries.Inc()
		if werr := (retry.Policy{}).Wait(ctx, addr+"/"+domain, attempt+1, c.m.backoffMS); werr != nil {
			return Record{}, err
		}
	}
}

// lookupOnce performs one RFC 3912 exchange under a single deadline. Only
// a clean close (EOF) terminates the read; a timeout or reset mid-record
// is a transport failure, never silently parsed as partial data.
func (c *Client) lookupOnce(addr, domain string) (Record, error) {
	timeout := c.timeout()
	dial := c.Dial
	if dial == nil {
		dial = faultx.DialTimeout
	}
	conn, err := dial("tcp", addr, timeout)
	if err != nil {
		return Record{}, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if _, err := fmt.Fprintf(conn, "%s\r\n", domain); err != nil {
		return Record{}, err
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := conn.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			if !errors.Is(rerr, io.EOF) {
				return Record{}, rerr
			}
			break
		}
	}
	text := sb.String()
	if strings.HasPrefix(text, "No match") {
		return Record{}, ErrNoMatch
	}
	return Parse(text)
}
