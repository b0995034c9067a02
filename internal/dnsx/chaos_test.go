package dnsx

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"squatphi/internal/faultx"
	"squatphi/internal/obs"
	"squatphi/internal/retry"
)

// chaosDomains is the probe workload of the fault-injection tests. Each
// domain is planted in the store, so with no faults every probe resolves.
var chaosDomains = []string{
	"paypa1-login.com", "faceb00k-secure.net", "app1e-id.org",
	"amazom-verify.com", "g00gle-docs.net", "netfl1x-billing.org",
	"chase-onl1ne.com", "dropb0x-share.net",
}

func chaosStore() *Store {
	st := NewStore()
	for i, d := range chaosDomains {
		st.Add(d, [4]byte{10, 1, 2, byte(i + 1)})
	}
	return st
}

// probeCounts is the deterministic slice of a probe run's counter
// snapshot: prober accounting plus injected-fault tallies. Latency
// histograms are deliberately excluded.
type probeCounts struct {
	sent, retries, timeouts, neterrors, stale int64
	resolved, unresolved                      int64
	injDrops, injStale                        int64
}

func snapshotProbeCounts(reg *obs.Registry) probeCounts {
	s := reg.Snapshot()
	return probeCounts{
		sent:       s.Counters["dnsx.probe.sent"],
		retries:    s.Counters["dnsx.probe.retries"],
		timeouts:   s.Counters["dnsx.probe.timeouts"],
		neterrors:  s.Counters["dnsx.probe.neterrors"],
		stale:      s.Counters["dnsx.probe.stale_discarded"],
		resolved:   s.Counters["dnsx.probe.resolved"],
		unresolved: s.Counters["dnsx.probe.unresolved"],
		injDrops:   s.Counters["faultx.udp.drop"],
		injStale:   s.Counters["faultx.udp.stale_id"],
	}
}

// runChaosProbe probes chaosDomains against a live server through a
// fault-injecting UDP conn and returns the resolved records plus the
// counter snapshot. Backoff is disabled so runs are fast.
func runChaosProbe(t *testing.T, f faultx.Faults, parallelism, proberRetries int) ([]Record, probeCounts) {
	t.Helper()
	srv, err := NewServerObs(chaosStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	p := &Prober{
		Addr:        srv.Addr(),
		Timeout:     80 * time.Millisecond,
		Retries:     proberRetries,
		Parallelism: parallelism,
		Policy:      retry.Policy{BaseDelay: -1}, // zero-delay retries keep the chaos runs fast
		Metrics:     reg,
		Dial: func(addr string) (net.Conn, error) {
			raw, err := net.Dial("udp", addr)
			if err != nil {
				return nil, err
			}
			return faultx.WrapConn(raw, f, nil, reg), nil
		},
	}
	recs, err := p.Probe(context.Background(), chaosDomains)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	return recs, snapshotProbeCounts(reg)
}

// TestProbeChaosDeterministicAcrossParallelism drives the prober through
// a probabilistic drop mix at several seeds and asserts the final counter
// snapshot is identical at any worker count: fault decisions are pure
// functions of (key, attempt), and each domain's attempt sequence lives
// on one worker, so scheduling cannot leak into the counters.
func TestProbeChaosDeterministicAcrossParallelism(t *testing.T) {
	n := int64(len(chaosDomains))
	for _, seed := range []uint64{1, 7, 42} {
		f := faultx.Faults{Seed: seed, DropProb: 0.5}
		_, base := runChaosProbe(t, f, 1, 0)
		for _, par := range []int{4, 8} {
			if _, got := runChaosProbe(t, f, par, 0); got != base {
				t.Errorf("seed %d: counters at parallelism %d = %+v, want %+v (serial)", seed, par, got, base)
			}
		}
		if base.resolved+base.unresolved != n {
			t.Errorf("seed %d: resolved %d + unresolved %d != %d domains", seed, base.resolved, base.unresolved, n)
		}
		if base.sent != n+base.retries {
			t.Errorf("seed %d: sent %d != domains %d + retries %d", seed, base.sent, n, base.retries)
		}
		if base.timeouts != base.injDrops {
			t.Errorf("seed %d: timeouts %d != injected drops %d", seed, base.timeouts, base.injDrops)
		}
	}
}

// TestProbeDropThenResolve caps the drop fault at one per query: every
// first send is swallowed, every retry lands, so the exact counter values
// are computable — and identical at any parallelism.
func TestProbeDropThenResolve(t *testing.T) {
	n := int64(len(chaosDomains))
	f := faultx.Faults{Seed: 3, DropProb: 1, MaxFaultsPerKey: 1}
	for _, par := range []int{1, 4} {
		recs, c := runChaosProbe(t, f, par, 0)
		if int64(len(recs)) != n || c.resolved != n || c.unresolved != 0 {
			t.Fatalf("parallelism %d: resolved %d/%d (counters %+v)", par, len(recs), n, c)
		}
		if c.sent != 2*n || c.retries != n || c.timeouts != n || c.injDrops != n {
			t.Errorf("parallelism %d: counters %+v, want sent=%d retries=%d timeouts=%d drops=%d",
				par, c, 2*n, n, n, n)
		}
	}
}

// TestProbeStaleIDDoesNotBurnAttempt is the regression test for the
// prober re-read fix: a stale (mismatched-ID) datagram must be discarded
// and the read continued within the attempt's remaining deadline. The old
// loop fell through to the retry loop, re-sending the query and burning
// an attempt per stale answer.
func TestProbeStaleIDDoesNotBurnAttempt(t *testing.T) {
	n := int64(len(chaosDomains))
	recs, c := runChaosProbe(t, faultx.Faults{Seed: 5, StaleIDProb: 1}, 4, 0)
	if int64(len(recs)) != n {
		t.Fatalf("resolved %d/%d under stale-ID replay", len(recs), n)
	}
	if c.retries != 0 || c.timeouts != 0 {
		t.Errorf("stale replays burned attempts: retries=%d timeouts=%d, want 0/0", c.retries, c.timeouts)
	}
	if c.sent != n {
		t.Errorf("sent = %d, want %d (one send per domain)", c.sent, n)
	}
	if c.stale != n || c.injStale != n {
		t.Errorf("stale discards = %d (injected %d), want %d", c.stale, c.injStale, n)
	}
}

// TestProbeRetriesConvention is the regression test for the retry-count
// convention: negative disables retries entirely (the old prober treated
// any n <= 0 as "use the default of 2").
func TestProbeRetriesConvention(t *testing.T) {
	n := int64(len(chaosDomains))
	_, c := runChaosProbe(t, faultx.Faults{Seed: 9, DropProb: 1}, 2, -1)
	if c.sent != n || c.retries != 0 {
		t.Errorf("retries=-1: sent=%d retries=%d, want %d/0", c.sent, c.retries, n)
	}
	if c.resolved != 0 || c.unresolved != n {
		t.Errorf("retries=-1 under total drop: resolved=%d unresolved=%d", c.resolved, c.unresolved)
	}
}

// refusedConn is a net.Conn whose reads fail with ECONNREFUSED, the
// kernel's answer when a UDP destination port is closed.
type refusedConn struct{}

func (refusedConn) Read(b []byte) (int, error) {
	return 0, &net.OpError{Op: "read", Net: "udp", Err: syscall.ECONNREFUSED}
}
func (refusedConn) Write(b []byte) (int, error) { return len(b), nil }
func (refusedConn) Close() error                { return nil }
func (refusedConn) LocalAddr() net.Addr         { return &net.UDPAddr{} }
func (refusedConn) RemoteAddr() net.Addr        { return &net.UDPAddr{} }
func (refusedConn) SetDeadline(time.Time) error { return nil }
func (refusedConn) SetReadDeadline(time.Time) error {
	return nil
}
func (refusedConn) SetWriteDeadline(time.Time) error { return nil }

// TestProbeClassifiesConnRefused is the regression test for read-error
// classification: a connection-level error (ECONNREFUSED from a dead
// resolver) must be accounted as a network error, not a timeout — the old
// prober counted every failed read as a timeout.
func TestProbeClassifiesConnRefused(t *testing.T) {
	reg := obs.NewRegistry()
	p := &Prober{
		Addr:        "127.0.0.1:9",
		Retries:     -1,
		Parallelism: 2,
		Metrics:     reg,
		Dial:        func(string) (net.Conn, error) { return refusedConn{}, nil },
	}
	domains := chaosDomains[:3]
	recs, err := p.Probe(context.Background(), domains)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("resolved %d records from a refused port", len(recs))
	}
	c := snapshotProbeCounts(reg)
	if c.neterrors != int64(len(domains)) {
		t.Errorf("neterrors = %d, want %d", c.neterrors, len(domains))
	}
	if c.timeouts != 0 {
		t.Errorf("timeouts = %d, want 0: connection refusal is not a timeout", c.timeouts)
	}
}

// TestProbeDialFailureLeaksNothing is the regression test for the job
// feeder that outlived Probe: when every worker's dial failed, nothing
// drained the unbuffered jobs channel and the feeder blocked on it
// forever. Probe must return the dial error and leave no goroutine behind.
func TestProbeDialFailureLeaksNothing(t *testing.T) {
	dialErr := errors.New("dial refused")
	p := &Prober{
		Addr:        "127.0.0.1:9",
		Parallelism: 3,
		Dial:        func(string) (net.Conn, error) { return nil, dialErr },
	}
	recs, err := p.Probe(context.Background(), chaosDomains)
	if !errors.Is(err, dialErr) || len(recs) != 0 {
		t.Fatalf("Probe = (%d records, %v), want (0, %v)", len(recs), err, dialErr)
	}
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "(*Prober).Probe") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a Probe goroutine outlived the call:\n%s", stacks)
		}
	}
}

// TestIDBlocksDisjoint checks the per-worker partition of the 16-bit DNS
// ID space: blocks cover distinct ranges, so no worker can ever emit an
// ID that another worker has in flight.
func TestIDBlocksDisjoint(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 8, 16, 64} {
		type span struct{ lo, hi int }
		var spans []span
		for w := 0; w < workers; w++ {
			base, size := idBlock(w, workers)
			if size < 1 {
				t.Fatalf("workers=%d w=%d: empty block", workers, w)
			}
			if base < 0 || base+size > 1<<16 {
				t.Fatalf("workers=%d w=%d: block [%d,%d) outside the 16-bit space", workers, w, base, base+size)
			}
			for _, s := range spans {
				if base < s.hi && s.lo < base+size {
					t.Fatalf("workers=%d: block [%d,%d) overlaps [%d,%d)", workers, base, base+size, s.lo, s.hi)
				}
			}
			spans = append(spans, span{base, base + size})
		}
	}
}

// TestOldSharedIDStreamsCollide documents the bug the partition replaced:
// the old per-worker streams (seq starts at the worker index, advances by
// 257) each walk the entire 16-bit space, so two workers' in-flight IDs
// eventually coincide and a stale answer to one worker's query can
// satisfy another's. The new block streams never intersect.
func TestOldSharedIDStreamsCollide(t *testing.T) {
	seen := make(map[uint16]bool, 1<<16)
	seq0 := uint16(0)
	for n := 0; n < 1<<16; n++ {
		seq0 += 257
		seen[seq0] = true
	}
	collided := false
	seq1 := uint16(1)
	for n := 0; n < 1<<16; n++ {
		seq1 += 257
		if seen[seq1] {
			collided = true
			break
		}
	}
	if !collided {
		t.Fatal("old scheme: expected worker 0 and worker 1 ID streams to collide within 2^16 queries")
	}

	base0, size0 := idBlock(0, 2)
	base1, size1 := idBlock(1, 2)
	for n := 0; n < 1<<16; n++ {
		if uint16(base0+n%size0) == uint16(base1+n%size1) {
			t.Fatalf("new scheme: worker streams collide at query %d", n)
		}
	}
}
