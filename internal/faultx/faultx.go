// Package faultx is a deterministic, seeded fault-injection layer for the
// network substrate: an http.RoundTripper wrapper for the crawler side and
// a UDP net.Conn wrapper for the DNS side.
//
// The paper's measurement loop (§3.2, §5.3) runs continuously against
// hostile, unreliable infrastructure — dead or slow phishing hosts, flaky
// resolvers, stale answers. faultx reproduces those failure modes on
// demand so the retries and backoff of internal/retry can be tested
// instead of assumed:
//
//	HTTP: dropped requests (timeouts), connection resets, 5xx bursts,
//	      slow-loris bodies, injected latency.
//	UDP:  dropped datagrams, duplicates, stale-ID replays, truncation,
//	      corruption, injected latency.
//
// Every decision is a pure function of (seed, key, attempt): the key
// identifies the logical work item (URL host+path, DNS question name) and
// the attempt index counts how many times that key has been seen. Faults
// are therefore reproducible from the seed alone and — because they do not
// depend on goroutine scheduling — identical at any worker count, which is
// what lets chaos tests assert exact metric values.
package faultx

import (
	"time"

	"squatphi/internal/simrand"
)

// Faults configures the injected fault mix. All probabilities are in
// [0, 1] and are evaluated in a fixed order per (key, attempt); at most
// one fault kind (plus optional latency) fires per attempt.
type Faults struct {
	// Seed drives every decision; the same seed replays the same faults.
	Seed uint64

	// MaxFaultsPerKey suppresses all fault kinds once a key has been
	// attempted that many times (0 = no cap). With a cap of k, retry
	// attempts beyond k always pass through, so bounded retry policies
	// can be tested for eventual success.
	MaxFaultsPerKey int

	// DelayProb injects Delay of extra latency before the operation
	// (independent of the fault kinds below).
	DelayProb float64
	Delay     time.Duration

	// HTTP-side fault kinds (evaluated in this order; first match wins).
	DropProb     float64 // swallow the request: the client sees a timeout
	ResetProb    float64 // connection reset (a non-timeout transport error)
	HTTP5xxProb  float64 // synthesize an HTTP 503 answer
	SlowBodyProb float64 // deliver the body slow-loris style

	// SlowChunk/SlowChunkDelay shape slow-loris bodies (defaults 64 bytes
	// every 1ms).
	SlowChunk      int
	SlowChunkDelay time.Duration

	// UDP-side fault kinds (evaluated in this order after DropProb; first
	// match wins).
	DupProb      float64 // deliver the response datagram twice
	StaleIDProb  float64 // deliver an ID-corrupted copy before the real response
	TruncateProb float64 // deliver only the first half of the datagram
	CorruptProb  float64 // flip bytes in the datagram payload
}

// faultKind enumerates the exclusive fault outcomes.
type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	faultReset
	faultHTTP5xx
	faultSlowBody
	faultDup
	faultStaleID
	faultTruncate
	faultCorrupt
)

func (k faultKind) String() string {
	switch k {
	case faultDrop:
		return "drop"
	case faultReset:
		return "reset"
	case faultHTTP5xx:
		return "5xx"
	case faultSlowBody:
		return "slow_body"
	case faultDup:
		return "dup"
	case faultStaleID:
		return "stale_id"
	case faultTruncate:
		return "truncate"
	case faultCorrupt:
		return "corrupt"
	default:
		return "none"
	}
}

// decision is the reproducible outcome for one (key, attempt).
type decision struct {
	kind  faultKind
	delay bool
}

// rng derives the decision stream for one (key, attempt). The side prefix
// keeps HTTP and UDP streams of the same logical key uncorrelated.
func (f Faults) rng(side, key string, attempt int) *simrand.RNG {
	return simrand.New(f.Seed).Split(side + ":" + key).SplitN(uint64(attempt))
}

func (f Faults) capped(attempt int) bool {
	return f.MaxFaultsPerKey > 0 && attempt >= f.MaxFaultsPerKey
}

// httpDecide resolves the HTTP-side fault for (key, attempt).
func (f Faults) httpDecide(key string, attempt int) decision {
	rng := f.rng("http", key, attempt)
	d := decision{delay: rng.Bool(f.DelayProb)}
	if f.capped(attempt) {
		return d
	}
	switch {
	case rng.Bool(f.DropProb):
		d.kind = faultDrop
	case rng.Bool(f.ResetProb):
		d.kind = faultReset
	case rng.Bool(f.HTTP5xxProb):
		d.kind = faultHTTP5xx
	case rng.Bool(f.SlowBodyProb):
		d.kind = faultSlowBody
	}
	return d
}

// udpDecide resolves the UDP-side fault for (key, attempt).
func (f Faults) udpDecide(key string, attempt int) decision {
	rng := f.rng("udp", key, attempt)
	d := decision{delay: rng.Bool(f.DelayProb)}
	if f.capped(attempt) {
		return d
	}
	switch {
	case rng.Bool(f.DropProb):
		d.kind = faultDrop
	case rng.Bool(f.DupProb):
		d.kind = faultDup
	case rng.Bool(f.StaleIDProb):
		d.kind = faultStaleID
	case rng.Bool(f.TruncateProb):
		d.kind = faultTruncate
	case rng.Bool(f.CorruptProb):
		d.kind = faultCorrupt
	}
	return d
}

// HTTPFault returns the name of the HTTP-side fault that fires for
// (key, attempt): "drop", "reset", "5xx", "slow_body", or "none". It is
// the replay oracle chaos tests use to compute the exact counter values a
// run must produce, independent of worker count or scheduling.
func (f Faults) HTTPFault(key string, attempt int) string {
	return f.httpDecide(key, attempt).kind.String()
}

func (f Faults) slowChunk() int {
	if f.SlowChunk <= 0 {
		return 64
	}
	return f.SlowChunk
}

func (f Faults) slowChunkDelay() time.Duration {
	if f.SlowChunkDelay <= 0 {
		return time.Millisecond
	}
	return f.SlowChunkDelay
}
