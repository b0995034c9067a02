// Package retry is the shared retry policy of every component that talks
// to the (synthetic or real) network substrate: the crawler, the DNS
// prober, and the whois client.
//
// The paper's measurement loop (§3.2, §5.3) runs continuously against live
// phishing infrastructure — flaky resolvers, slow or dead hosts, stale
// answers — so retry behaviour must be uniform and testable rather than
// re-implemented ad hoc per component. Each component retries transport
// errors up to its own retry count and waits between attempts with capped
// exponential backoff and deterministic jitter (seeded via simrand, so a
// chaos run replays the exact same delays).
//
// Retry-count convention (shared by all components, see Resolve): a
// negative count disables retries entirely, zero selects the component's
// documented default, and a positive count is used as given.
package retry

import (
	"context"
	"errors"
	"net"
	"time"

	"squatphi/internal/obs"
	"squatphi/internal/simrand"
)

// Resolve applies the repository-wide retry-count convention: negative
// disables (0 retries), zero selects def, positive is used as given.
func Resolve(n, def int) int {
	if n < 0 {
		return 0
	}
	if n == 0 {
		return def
	}
	return n
}

const (
	// maxDelay caps the exponential backoff.
	maxDelay = 5 * time.Second
	// jitterSeed seeds the jitter stream: delays are scaled by a factor
	// in [0.5, 1.0) drawn from simrand.New(jitterSeed).Split(key).SplitN(attempt),
	// so the same (key, attempt) always yields the same delay regardless
	// of worker count or scheduling.
	jitterSeed = 0
)

// Policy is a component's backoff schedule. The zero value backs off at
// the default delays.
type Policy struct {
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it up to 5s. Zero selects 100ms; negative disables backoff
	// entirely (zero-delay retries).
	BaseDelay time.Duration
}

// Backoff returns the deterministic backoff delay before retry number
// attempt (attempt >= 1) of the work item identified by key: capped
// exponential growth scaled by seeded jitter in [0.5, 1.0).
func (p Policy) Backoff(key string, attempt int) time.Duration {
	d := p.BaseDelay
	if d < 0 {
		return 0
	}
	if d == 0 {
		d = 100 * time.Millisecond
	}
	attempt = max(attempt, 1)
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	d = min(d, maxDelay)
	jitter := simrand.New(jitterSeed).Split(key).SplitN(uint64(attempt)).Float64()
	return time.Duration(float64(d) * (0.5 + 0.5*jitter))
}

// Wait records the Backoff delay for (key, attempt) in backoffMS (the
// calling component's <component>.retry.backoff_ms histogram) and sleeps
// it, returning early with ctx's error when ctx is cancelled.
func (p Policy) Wait(ctx context.Context, key string, attempt int, backoffMS *obs.Histogram) error {
	d := p.Backoff(key, attempt)
	backoffMS.Observe(float64(d) / float64(time.Millisecond))
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// IsTimeout reports whether err is a deadline-style failure (a net.Error
// timeout or context.DeadlineExceeded), as opposed to a connection-level
// error such as ECONNREFUSED. Components use it to split "the host is
// slow" from "the host is unreachable" in their metrics; conflating the
// two hid resolver outages behind timeout counters.
func IsTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
