package dnsx

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"squatphi/internal/obs"
	"squatphi/internal/retry"
)

// Server is an authoritative DNS server over UDP answering A queries from a
// Store. It plays the role of the zone infrastructure that the ActiveDNS
// prober measures.
type Server struct {
	store *Store
	conn  net.PacketConn

	mu     sync.Mutex
	closed bool

	// Metric handles, resolved once at construction (nil-registry safe).
	mQueries   *obs.Counter
	mMalformed *obs.Counter
	mNXDomain  *obs.Counter
	mHandleUS  *obs.Histogram
}

// NewServerObs starts an authoritative server on a free localhost UDP
// port, reporting to the given metrics registry (which may be nil):
// queries served, malformed packets, NXDOMAIN responses, and per-query
// handling time. Callers must Close it.
func NewServerObs(store *Store, reg *obs.Registry) (*Server, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("dnsx: listen: %w", err)
	}
	s := &Server{
		store:      store,
		conn:       conn,
		mQueries:   reg.Counter("dnsx.server.queries"),
		mMalformed: reg.Counter("dnsx.server.malformed"),
		mNXDomain:  reg.Counter("dnsx.server.nxdomain"),
		mHandleUS:  reg.Histogram("dnsx.server.handle_us", obs.MicrosBuckets),
	}
	go s.serve()
	return s, nil
}

// Addr returns the server's UDP address.
func (s *Server) Addr() string { return s.conn.LocalAddr().String() }

// Close shuts the server down.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.conn.Close()
}

func (s *Server) serve() {
	buf := make([]byte, 4096)
	for {
		n, addr, err := s.conn.ReadFrom(buf)
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		resp := s.handle(buf[:n])
		if resp != nil {
			_, _ = s.conn.WriteTo(resp, addr)
		}
	}
}

// handle produces the wire response for one query datagram.
func (s *Server) handle(req []byte) []byte {
	start := time.Now()
	defer func() { s.mHandleUS.Observe(float64(time.Since(start)) / float64(time.Microsecond)) }()
	q, err := Unpack(req)
	if err != nil || q.Header.QR || len(q.Questions) == 0 {
		s.mMalformed.Inc()
		return nil
	}
	resp := &Message{
		Header: Header{
			ID: q.Header.ID, QR: true, AA: true,
			RD: q.Header.RD, Opcode: q.Header.Opcode,
		},
		Questions: q.Questions,
	}
	if q.Header.Opcode != 0 {
		resp.Header.RCode = RCodeNotImpl
	} else {
		for _, question := range q.Questions {
			if question.Class != ClassIN || question.Type != TypeA {
				continue
			}
			if ip, ok := s.store.Lookup(question.Name); ok {
				resp.Answers = append(resp.Answers, A(question.Name, 300, ip))
			}
		}
		if len(resp.Answers) == 0 {
			resp.Header.RCode = RCodeNXDomain
			s.mNXDomain.Inc()
		}
	}
	s.mQueries.Inc()
	out, err := resp.Pack()
	if err != nil {
		return nil
	}
	return out
}

// Prober performs active DNS measurement: it resolves batches of candidate
// domains against an authoritative server and collects (domain, IP) records,
// reproducing the ActiveDNS collection methodology.
type Prober struct {
	// Addr is the server address ("host:port").
	Addr string
	// Timeout bounds each query round trip. Default 2s.
	Timeout time.Duration
	// Retries is the number of re-sends after a timed-out attempt,
	// following the repository retry convention: negative disables
	// retries entirely, 0 selects the default of 2, positive as given.
	Retries int
	// Parallelism is the number of concurrent workers. Default 8. Each
	// worker owns a disjoint block of the 16-bit DNS ID space, so a stale
	// answer to one worker's query can never match another worker's.
	Parallelism int
	// Policy is the backoff between retries (see internal/retry).
	Policy retry.Policy
	// Dial opens the worker UDP connections; nil selects net.Dial("udp",
	// Addr). Chaos tests wrap the returned conn with faultx injection.
	Dial func(addr string) (net.Conn, error)
	// Metrics, when set, receives probe accounting: queries sent, retries,
	// timeouts vs non-timeout network errors, stale/malformed datagrams
	// discarded, resolved/unresolved splits, an RTT histogram, and
	// backoff delays in dnsx.probe.retry.backoff_ms.
	Metrics *obs.Registry
}

// probeMetrics bundles the handles resolved once per Probe call.
type probeMetrics struct {
	sent, retries, timeouts, neterrors, stale, resolved, unresolved *obs.Counter
	rttMS, backoffMS                                                *obs.Histogram
}

func (p *Prober) metrics() *probeMetrics {
	reg := p.Metrics // nil registry yields live, unregistered handles
	return &probeMetrics{
		sent:       reg.Counter("dnsx.probe.sent"),
		retries:    reg.Counter("dnsx.probe.retries"),
		timeouts:   reg.Counter("dnsx.probe.timeouts"),
		neterrors:  reg.Counter("dnsx.probe.neterrors"),
		stale:      reg.Counter("dnsx.probe.stale_discarded"),
		resolved:   reg.Counter("dnsx.probe.resolved"),
		unresolved: reg.Counter("dnsx.probe.unresolved"),
		rttMS:      reg.Histogram("dnsx.probe.rtt_ms", obs.MillisBuckets),
		backoffMS:  reg.Histogram("dnsx.probe.retry.backoff_ms", obs.MillisBuckets),
	}
}

// idBlock partitions the 16-bit DNS ID space into equal per-worker
// blocks: worker w of n draws IDs from [base, base+size). Blocks are
// disjoint, so no worker can mistake another worker's (possibly stale)
// answer for its own — the old shared seq += 257 streams overlapped mod
// 65536 on large batches.
func idBlock(worker, workers int) (base, size int) {
	if workers < 1 {
		workers = 1
	}
	if workers > 1<<16 {
		workers = 1 << 16
	}
	blk := (1 << 16) / workers
	return worker * blk, blk
}

// Probe resolves the given domains and returns the records that resolved.
// Unresolvable domains (NXDOMAIN, timeouts after retries) are skipped.
// Records are returned in input order regardless of which worker resolved
// them or when, so downstream stages (matching, crawling) see a
// deterministic sequence.
func (p *Prober) Probe(ctx context.Context, domains []string) ([]Record, error) {
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	retries := retry.Resolve(p.Retries, 2)
	workers := p.Parallelism
	if workers <= 0 {
		workers = 8
	}
	if workers > len(domains) && len(domains) > 0 {
		workers = len(domains)
	}

	met := p.metrics()
	// Workers claim indices from next, so one whose dial failed leaves
	// nothing blocked behind it. Each writes only the slots it claimed,
	// so the per-index results need no lock; compacting in index order
	// afterwards makes the output independent of completion order.
	var next atomic.Int64
	recs := make([]Record, len(domains))
	resolved := make([]bool, len(domains))
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once

	dial := p.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("udp", addr) }
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := dial(p.Addr)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			defer conn.Close()
			base, size := idBlock(w, workers)
			for n := 0; ctx.Err() == nil; n++ {
				i := int(next.Add(1)) - 1
				if i >= len(domains) {
					return
				}
				domain := domains[i]
				id := uint16(base + n%size)
				if ip, ok := p.query(ctx, conn, id, domain, timeout, retries, met); ok {
					met.resolved.Inc()
					recs[i] = Record{Domain: domain, IP: ip}
					resolved[i] = true
				} else {
					met.unresolved.Inc()
				}
			}
		}(w)
	}
	wg.Wait()
	var out []Record
	for i, ok := range resolved {
		if ok {
			out = append(out, recs[i])
		}
	}
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	return out, firstErr
}

// query resolves one domain over conn with up to retries re-sends. Each
// attempt gets one read deadline; datagrams that fail to parse or carry a
// mismatched (stale) ID are discarded and the read continues within the
// remaining deadline instead of burning the attempt. Read errors are
// classified: only genuine deadline expiries count as timeouts, other
// network errors (e.g. connection refused) are accounted separately.
func (p *Prober) query(ctx context.Context, conn net.Conn, id uint16, domain string, timeout time.Duration, retries int, met *probeMetrics) ([4]byte, bool) {
	req, err := NewQuery(id, domain, TypeA).Pack()
	if err != nil {
		return [4]byte{}, false
	}
	buf := make([]byte, 4096)
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			met.retries.Inc()
			if p.Policy.Wait(ctx, domain, attempt, met.backoffMS) != nil {
				break // context cancelled during backoff
			}
		}
		met.sent.Inc()
		start := time.Now()
		if _, err := conn.Write(req); err != nil {
			met.neterrors.Inc()
			continue
		}
		deadline := time.Now().Add(timeout)
		_ = conn.SetReadDeadline(deadline)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				if retry.IsTimeout(err) {
					met.timeouts.Inc()
				} else {
					met.neterrors.Inc()
				}
				break // next attempt
			}
			resp, uerr := Unpack(buf[:n])
			if uerr != nil || resp.Header.ID != id || !resp.Header.QR {
				// Stale, mismatched, or malformed datagram: discard and
				// keep reading within the remaining deadline.
				met.stale.Inc()
				continue
			}
			met.rttMS.ObserveSince(start)
			drainConn(conn, buf, met)
			if resp.Header.RCode != RCodeSuccess {
				return [4]byte{}, false
			}
			for _, rr := range resp.Answers {
				if ip, ok := rr.IPv4(); ok {
					return ip, true
				}
			}
			return [4]byte{}, false
		}
	}
	return [4]byte{}, false
}

// drainConn discards datagrams that are already deliverable without
// waiting (late duplicates of the accepted answer), leaving the socket
// clean for the next query on this conn. The expired deadline makes the
// drain free when nothing is pending.
func drainConn(conn net.Conn, buf []byte, met *probeMetrics) {
	_ = conn.SetReadDeadline(time.Now())
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
		met.stale.Inc()
	}
}
