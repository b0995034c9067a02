package faultx

import (
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"squatphi/internal/obs"
)

// udpMetrics bundles the Conn wrapper's injected-fault counters.
type udpMetrics struct {
	drops, dups, stales, truncs, corrupts, delays *obs.Counter
}

func newUDPMetrics(reg *obs.Registry) udpMetrics {
	return udpMetrics{
		drops:    reg.Counter("faultx.udp.drop"),
		dups:     reg.Counter("faultx.udp.dup"),
		stales:   reg.Counter("faultx.udp.stale_id"),
		truncs:   reg.Counter("faultx.udp.truncate"),
		corrupts: reg.Counter("faultx.udp.corrupt"),
		delays:   reg.Counter("faultx.udp.delay"),
	}
}

// defaultKey keys a datagram by an FNV hash of its payload beyond the
// 2-byte ID prefix, so retransmissions of the same query (with the same
// ID) share a key without the caller having to parse the protocol.
func defaultKey(b []byte) string {
	h := fnv.New64a()
	if len(b) > 2 {
		_, _ = h.Write(b[2:])
	} else {
		_, _ = h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Conn wraps a client-side UDP net.Conn (as returned by net.Dial) with
// seeded fault injection. Outgoing datagrams may be dropped or delayed;
// the matching response may be duplicated, replayed with a corrupted
// (stale) ID, truncated, or corrupted, per the Faults decision for the
// datagram's (key, attempt).
//
// Injected extra datagrams (duplicates, the real response behind a stale
// replay) are queued inside the wrapper and served by subsequent Read
// calls before any socket read, so their delivery order is deterministic
// and independent of scheduling.
type Conn struct {
	net.Conn
	f   Faults
	key func([]byte) string
	met udpMetrics

	mu       sync.Mutex
	attempts map[string]int
	pending  faultKind // response fault armed by the last Write
	queue    [][]byte  // injected datagrams served before real reads
}

// WrapConn wraps conn with the given fault mix. keyFn derives the fault
// key from each outgoing datagram (nil selects a payload hash that
// ignores the leading 2-byte ID); reg (which may be nil) receives
// faultx.udp.* counters.
func WrapConn(conn net.Conn, f Faults, keyFn func([]byte) string, reg *obs.Registry) *Conn {
	if keyFn == nil {
		keyFn = defaultKey
	}
	return &Conn{
		Conn:     conn,
		f:        f,
		key:      keyFn,
		met:      newUDPMetrics(reg),
		attempts: map[string]int{},
	}
}

// Write sends one datagram, applying the (key, attempt) fault decision.
func (c *Conn) Write(b []byte) (int, error) {
	key := c.key(b)
	c.mu.Lock()
	n := c.attempts[key]
	c.attempts[key]++
	c.mu.Unlock()

	d := c.f.udpDecide(key, n)
	if d.delay && c.f.Delay > 0 {
		c.met.delays.Inc()
		time.Sleep(c.f.Delay)
	}
	if d.kind == faultDrop {
		c.met.drops.Inc()
		return len(b), nil // swallowed: the reader will hit its deadline
	}
	c.mu.Lock()
	c.pending = d.kind
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// Read delivers queued injected datagrams first, then reads the socket
// and applies the response fault armed by the last Write.
func (c *Conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if len(c.queue) > 0 {
		pkt := c.queue[0]
		c.queue = c.queue[1:]
		c.mu.Unlock()
		return copy(b, pkt), nil
	}
	c.mu.Unlock()

	n, err := c.Conn.Read(b)
	if err != nil {
		return n, err
	}

	c.mu.Lock()
	kind := c.pending
	c.pending = faultNone
	c.mu.Unlock()

	switch kind {
	case faultDup:
		// Deliver the response now and queue an identical late duplicate.
		c.met.dups.Inc()
		c.enqueue(b[:n])
	case faultStaleID:
		// Queue the real response and deliver an ID-corrupted copy first —
		// the wire shape of accepting a stale answer from an earlier query.
		c.met.stales.Inc()
		c.enqueue(b[:n])
		if n >= 2 {
			b[0] ^= 0xFF
			b[1] ^= 0x55
		}
	case faultTruncate:
		if n > 4 {
			c.met.truncs.Inc()
			return n / 2, nil
		}
	case faultCorrupt:
		c.met.corrupts.Inc()
		for i := 2; i < n; i += 5 {
			b[i] ^= 0xA5
		}
	}
	return n, nil
}

func (c *Conn) enqueue(pkt []byte) {
	cp := append([]byte(nil), pkt...)
	c.mu.Lock()
	c.queue = append(c.queue, cp)
	c.mu.Unlock()
}
