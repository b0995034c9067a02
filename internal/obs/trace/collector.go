package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultSampleEvery is the default head-sampling period: one scanned
// domain in every 64 gets a provenance mark. Mirrors the matcher's
// scan-time sampling period — frequent enough to watch the sampler work,
// rare enough that the hash check stays invisible next to a ~µs
// classification.
const DefaultSampleEvery = 64

// Bounds on retained state: provenance must never become the thing that
// OOMs a 224M-record scan.
const (
	maxScanMarks       = 8192 // head-sampled scan marks kept with full detail
	maxEventsPerDomain = 16   // attributed events retained per domain
	maxEventDomains    = 4096 // domains with attributed-event buffers
)

// ScanMark is the minimal provenance of one head-sampled matcher
// classification: enough to audit that the sampler and matcher agree,
// cheap enough for the hot loop.
type ScanMark struct {
	Domain  string `json:"domain"`
	Matched bool   `json:"matched"`
}

// Collector accumulates provenance across a run: head-sampled scan marks
// from the matcher hot loop, always-on evidence records for flagged
// verdicts, and per-domain buffers of attributable events. All methods
// are safe for concurrent use and no-ops on a nil receiver.
//
// Sampling selects domains by FNV-1a hash, not by call counter, so the
// sampled set depends only on the domain names scanned — identical at
// any worker count or shard interleaving.
type Collector struct {
	sampleEvery uint64 // 0 = sampling disabled
	// sampleMask is sampleEvery-1 when sampleEvery is a power of two, so
	// the per-scan sampling decision is a mask instead of a 64-bit DIV.
	sampleMask uint64

	scansSampled atomic.Int64
	hitsSampled  atomic.Int64

	mu      sync.Mutex
	marks   map[string]bool // sampled domain -> matched
	records map[string]*Record
	events  map[string][]Event
}

// NewCollector builds a collector head-sampling one scanned domain in
// every sampleEvery. 0 selects DefaultSampleEvery; a negative value
// disables scan sampling (flagged-verdict records and event attribution
// still work).
func NewCollector(sampleEvery int) *Collector {
	switch {
	case sampleEvery == 0:
		sampleEvery = DefaultSampleEvery
	case sampleEvery < 0:
		sampleEvery = 0
	}
	c := &Collector{
		sampleEvery: uint64(sampleEvery),
		marks:       map[string]bool{},
		records:     map[string]*Record{},
		events:      map[string][]Event{},
	}
	if n := c.sampleEvery; n != 0 && n&(n-1) == 0 {
		c.sampleMask = n - 1
	}
	return c
}

// fnv1a hashes s with 64-bit FNV-1a, over either byte view.
//
//squat:hot
func fnv1a[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ObserveScanBytes records one matcher classification if the domain is in
// the head sample. The fast path for unsampled domains is one hash and one
// mask (power-of-two rates, including the default) or one modulo — no
// locks, no allocation. This sits inside Matcher.MatchBytes on the
// DNS-scan hot path, so the unsampled cost is what the <5% overhead budget
// buys. The domain becomes a string only when it falls in the sample.
//
//squat:hot
func (c *Collector) ObserveScanBytes(domain []byte, matched bool) {
	if c == nil || c.sampleEvery == 0 {
		return
	}
	h := fnv1a(domain)
	if c.sampleMask != 0 {
		if h&c.sampleMask != 0 {
			return
		}
	} else if h%c.sampleEvery != 0 {
		return
	}
	c.recordMark(domain, matched)
}

// recordMark is ObserveScanBytes' sampled slow path: atomics plus a short
// critical section, 1-in-N events by construction. The string conversion
// happens here, behind the cold boundary, so the unsampled hot path stays
// allocation-free by construction.
//
//squat:cold
func (c *Collector) recordMark(domain []byte, matched bool) {
	c.scansSampled.Add(1)
	if matched {
		c.hitsSampled.Add(1)
	}
	c.mu.Lock()
	if len(c.marks) < maxScanMarks {
		c.marks[string(domain)] = matched
	}
	c.mu.Unlock()
}

// ScanStats returns the number of head-sampled classifications and how
// many of them matched.
func (c *Collector) ScanStats() (sampled, matched int64) {
	if c == nil {
		return 0, 0
	}
	return c.scansSampled.Load(), c.hitsSampled.Load()
}

// ScanMarks returns the retained head-sampled scan marks, sorted by
// domain.
func (c *Collector) ScanMarks() []ScanMark {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]ScanMark, 0, len(c.marks))
	for d, m := range c.marks {
		out = append(out, ScanMark{Domain: d, Matched: m})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// Put stores (or replaces) the evidence record for a domain. Flagged
// verdicts are always recorded regardless of sampling.
func (c *Collector) Put(rec *Record) {
	if c == nil || rec == nil || rec.Domain == "" {
		return
	}
	c.mu.Lock()
	c.records[rec.Domain] = rec
	c.mu.Unlock()
}

// Get returns the stored evidence record for a domain.
func (c *Collector) Get(domain string) (*Record, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	rec, ok := c.records[domain]
	c.mu.Unlock()
	return rec, ok
}

// Records returns every stored evidence record, sorted by domain.
func (c *Collector) Records() []*Record {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]*Record, 0, len(c.records))
	for _, rec := range c.records {
		out = append(out, rec)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// AddEvent buffers an event attributed to a domain (typically routed
// here by EventHandler). Buffers are bounded: at most
// maxEventsPerDomain events for each of at most maxEventDomains domains;
// excess events are dropped.
func (c *Collector) AddEvent(domain string, ev Event) {
	if c == nil || domain == "" {
		return
	}
	c.mu.Lock()
	buf, ok := c.events[domain]
	if !ok && len(c.events) >= maxEventDomains {
		c.mu.Unlock()
		return
	}
	if len(buf) < maxEventsPerDomain {
		c.events[domain] = append(buf, ev)
	}
	c.mu.Unlock()
}

// EventsFor returns the buffered events attributed to a domain, in
// arrival order.
func (c *Collector) EventsFor(domain string) []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	buf := c.events[domain]
	out := make([]Event, len(buf))
	copy(out, buf)
	c.mu.Unlock()
	return out
}
