// Package serve is SquatPhi's verdict-serving layer: the long-running
// daemon half of the paper's deployment posture (§7). Where the scan
// pipeline answers "which of these N hundred million records are
// squatting domains" as a batch, serve answers "is THIS domain a
// squatting domain" interactively, at lookup rates, from the snapshot
// store plus per-shard candidates warmed out of a scan of it.
//
// The coordinator partitions the domain space into shards with the
// repository-wide convention (dnsx.ShardIndex over the normalised
// domain), the exact partition the store and the delta-scan engine use,
// so a warmed shard corresponds one-to-one to a store shard and state
// hands off between the systems shard by shard.
package serve

import (
	"fmt"
	"sync"

	"squatphi/internal/dnsx"
	"squatphi/internal/obs"
	"squatphi/internal/squat"
)

// Verdict is one serving-layer answer.
type Verdict struct {
	// Domain is the normalised form the verdict applies to.
	Domain string `json:"domain"`
	// Known reports the domain is present in the store the shard was
	// warmed from (false before Warm).
	Known bool `json:"known"`
	// Matched reports the domain is a squatting candidate.
	Matched bool `json:"matched"`
	// Type/Brand/TLD describe the match (empty when !Matched).
	Type  string `json:"type,omitempty"`
	Brand string `json:"brand,omitempty"`
	TLD   string `json:"tld,omitempty"`
	// Shard is the shard the domain routes to (dnsx.ShardIndex).
	Shard int `json:"shard"`
	// Epoch is the warm epoch of the answering shard (0 before Warm).
	Epoch int `json:"epoch,omitempty"`
}

// Config configures a Coordinator.
type Config struct {
	// Shards is the shard count; it must equal the NumShards of every
	// store warmed into the coordinator (<= 0 selects dnsx.DefaultShards).
	Shards int
	// Matcher classifies every name the coordinator answers for. Required.
	Matcher *squat.Matcher
	// Metrics receives serve.* metrics (nil-tolerant).
	Metrics *obs.Registry
}

// shard is one lock domain of hot serving state: the squatting candidates
// among its store shard's names and the store they came from. Whether a
// name is Known is read from that store, so nothing here grows with the
// records that did not match. Until Warm sets its store a shard holds
// nothing and answers every name unknown, with Matched from the matcher.
//
// Lock order: a shard's lock, then the store's. Apply writes the store
// under the shard's write lock and Lookup reads it under the read lock, so
// no reader sees a name Known without the candidate it matched.
type shard struct {
	mu    sync.RWMutex
	cands map[string]hit // keyed by the store's own copy of the name
	store *dnsx.Store    // source of truth for Known and updates; set by Warm
	epoch int
}

// hit is what a shard keeps of one candidate besides its name: the brand's
// index in the matcher's brand list and the squatting type, 8 bytes where
// a squat.Candidate is 56.
type hit struct {
	brand int32
	typ   int32
}

// Coordinator routes lookups and updates to per-shard hot state.
// All methods are safe for concurrent use.
type Coordinator struct {
	shards   []*shard
	matcher  *squat.Matcher
	brands   []squat.Brand // the matcher's, indexed by hit.brand
	brandIdx map[squat.Brand]int32

	lookups, bulk, updates     *obs.Counter
	lookupUS, bulkMS, updateUS *obs.Histogram
}

// New builds a Coordinator with empty shards; call Warm to fill them
// from a scanned store.
func New(cfg Config) *Coordinator {
	if cfg.Matcher == nil {
		panic("serve: Config.Matcher is required")
	}
	n := cfg.Shards
	if n <= 0 {
		n = dnsx.DefaultShards
	}
	reg := cfg.Metrics
	c := &Coordinator{
		shards:   make([]*shard, n),
		matcher:  cfg.Matcher,
		brands:   cfg.Matcher.Brands(),
		brandIdx: make(map[squat.Brand]int32),
		lookups:  reg.Counter("serve.lookups"),
		bulk:     reg.Counter("serve.lookups.bulk"),
		updates:  reg.Counter("serve.updates"),
		lookupUS: reg.Histogram("serve.lookup_us", obs.MicrosBuckets),
		bulkMS:   reg.Histogram("serve.bulk_ms", obs.MillisBuckets),
		updateUS: reg.Histogram("serve.update_us", obs.MicrosBuckets),
	}
	for i, b := range c.brands {
		c.brandIdx[b] = int32(i)
	}
	for i := range c.shards {
		c.shards[i] = &shard{}
	}
	return c
}

// hitOf packs a candidate into a hit. It fails only for a brand the
// coordinator's matcher does not have, which none of its own Match results
// carries.
func (c *Coordinator) hitOf(cand squat.Candidate) (hit, bool) {
	b, ok := c.brandIdx[cand.Brand]
	return hit{brand: b, typ: int32(cand.Type)}, ok
}

// candidate unpacks the hit a shard keeps for name d.
func (c *Coordinator) candidate(d string, h hit) squat.Candidate {
	return squat.Candidate{Domain: d, Type: squat.Type(h.typ), Brand: c.brands[h.brand]}
}

// Warm fills every shard from a store and its scan result (e.g.
// deltascan.Engine.Scan or core.ScanStore output), which must be the
// store's candidates under the coordinator's matcher: a name of the store
// absent from cands answers Matched false, and a candidate the store does
// not hold is an error. The store's shard partition must equal the
// coordinator's. Each shard keys its candidates by the store's own copy
// of the name, so a name is held once.
//
// Warm is the reload path too: each shard's candidate map is built
// off-lock and swapped in with the store under the write lock, so
// in-flight readers drain on the RWMutex and a reader sees entirely old or
// entirely new state, never a mix. A reload's cands must be a scan of the
// store as it stands when Warm swaps it in: an Apply that lands between
// the caller's scan and the swap adds its name to the store but not to
// cands, and that name then answers Known without Matched. Callers that
// reload while updates stream in must hold them off across scan and Warm.
func (c *Coordinator) Warm(store *dnsx.Store, cands []squat.Candidate) error {
	n := len(c.shards)
	if store.NumShards() != n {
		return fmt.Errorf("serve: store has %d shards, coordinator %d; the shard partitions must agree for handoff",
			store.NumShards(), n)
	}
	sizes := make([]int, n)
	for _, cand := range cands {
		sizes[dnsx.ShardIndex(cand.Domain, n)]++
	}
	byShard := make([]map[string]hit, n)
	for i := range byShard {
		byShard[i] = make(map[string]hit, sizes[i])
	}
	for _, cand := range cands {
		name, known := store.Name(cand.Domain)
		h, ok := c.hitOf(cand)
		if !known || !ok {
			return fmt.Errorf("serve: candidate %q is not a store name matched by the coordinator's matcher", cand.Domain)
		}
		byShard[dnsx.ShardIndex(name, n)][name] = h
	}
	for i, sh := range c.shards {
		sh.mu.Lock()
		sh.cands, sh.store = byShard[i], store
		sh.epoch++
		sh.mu.Unlock()
	}
	return nil
}

// Lookup answers for one domain.
func (c *Coordinator) Lookup(domain string) Verdict {
	sw := obs.StartStopwatch()
	c.lookups.Inc()
	d := dnsx.Normalize(domain)
	v := c.lookup(d)
	c.lookupUS.Observe(sw.Micros())
	return v
}

func (c *Coordinator) lookup(d string) Verdict {
	i := dnsx.ShardIndex(d, len(c.shards))
	sh := c.shards[i]
	sh.mu.RLock()
	epoch := sh.epoch
	h, ok := sh.cands[d]
	known := ok
	if !ok && sh.store != nil {
		_, known = sh.store.Lookup(d)
	}
	sh.mu.RUnlock()
	var cand squat.Candidate
	if ok {
		cand = c.candidate(d, h)
	} else if !known {
		// Not in the snapshot: answer Matched statelessly, the same way
		// Apply does, so a name's Matched bit is the matcher's whether or
		// not its shard holds it.
		cand, ok = c.matcher.Match(d)
	}
	v := answer(d, i, cand, ok)
	v.Known, v.Epoch = known, epoch
	return v
}

// answer is the verdict for d on shard i with the match result filled in.
func answer(d string, i int, cand squat.Candidate, ok bool) Verdict {
	v := Verdict{Domain: d, Shard: i, Matched: ok}
	if ok {
		v.Type = cand.Type.String()
		v.Brand = cand.Brand.Name
		v.TLD = cand.Brand.TLD
	}
	return v
}

// LookupBatch answers for many domains in input order.
func (c *Coordinator) LookupBatch(domains []string) []Verdict {
	sw := obs.StartStopwatch()
	c.bulk.Inc()
	out := make([]Verdict, len(domains))
	for i, d := range domains {
		c.lookups.Inc()
		out[i] = c.lookup(dnsx.Normalize(d))
	}
	c.bulkMS.Observe(sw.Millis())
	return out
}

// Apply absorbs one streaming record update (a new registration or a
// changed resolution): the store — the source of truth — and the name's
// candidate are written in one critical section. Before Warm there is no
// store; Apply then writes nothing and answers like Lookup.
func (c *Coordinator) Apply(domain string, ip [4]byte) Verdict {
	sw := obs.StartStopwatch()
	c.updates.Inc()
	d := dnsx.Normalize(domain)
	i := dnsx.ShardIndex(d, len(c.shards))
	cand, ok := c.matcher.Match(d)
	sh := c.shards[i]
	sh.mu.Lock()
	epoch, warmed := sh.epoch, sh.store != nil
	if warmed {
		if ok {
			sh.cands[d], _ = c.hitOf(cand)
		}
		sh.store.Add(d, ip)
	}
	sh.mu.Unlock()

	v := answer(d, i, cand, ok)
	v.Known, v.Epoch = warmed, epoch
	c.updateUS.Observe(sw.Micros())
	return v
}
