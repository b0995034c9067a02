package squat

import (
	"math"
	"sync/atomic"

	"squatphi/internal/confusables"
	"squatphi/internal/domlm"
	"squatphi/internal/obs"
	"squatphi/internal/obs/trace"
)

// Matcher classifies observed DNS domains against a set of target brands.
// It is built once per brand set and then shared by any number of
// goroutines: all internal state is immutable after construction.
//
// Classification applies the five squatting rules in precedence order
// (wrongTLD for exact-name matches, then homograph, bits, typo, combo) so
// the resulting categories are disjoint, matching the paper's methodology.
type Matcher struct {
	brands []Brand

	// labels is the one label index: every brand name, brand-name skeleton
	// and generated bits/typo label maps to a fastEntry answering the first
	// three rules. gate is the Bloom filter over exactly its keys that
	// lookup consults first, so the ≥99.6 % of scanned labels that are in
	// neither cost a hash and one cache line instead of a table probe.
	labels *labelIndex
	gate   []uint64
	// ac finds brand names inside hyphenated labels for combo detection.
	ac *ahoCorasick

	// met is nil until InstrumentMetrics; all handles are atomic so Match
	// stays shareable across goroutines.
	met *matcherMetrics

	// trace is nil until InstrumentTrace; it receives head-sampled scan
	// provenance marks (1-in-N by domain hash, worker-count invariant).
	trace *trace.Collector

	// lm is the attached brand-language model (nil until AttachLM). When
	// present, labels that miss all five rule-based types are scored for
	// brand-likeness and promoted to Generated when lmGate, the threshold
	// comparison with its cut precomputed, passes them.
	lm     *domlm.Model
	lmGate domlm.Gate

	// rulesFP is computed once at construction; fp is rulesFP with the
	// attached model folded in. See Fingerprint.
	rulesFP uint64
	fp      uint64
}

// matchRulesVersion versions the classification rules themselves. Bump it
// whenever classify's behaviour changes for an unchanged brand set (new
// squatting type, different precedence, confusables-table change), so
// caches keyed on Fingerprint are invalidated even though the brand
// universe is identical.
const matchRulesVersion = 1

// scanSampleEvery is the sampling period of the scan_us histogram: one
// classification in every scanSampleEvery is timed. A classification costs
// on the order of a microsecond, so two stopwatch reads per record would
// dominate the DNS-scale hot loop; sampling keeps the latency distribution
// while the scanned/candidate counters stay exact.
const scanSampleEvery = 64

// matcherMetrics holds the matcher's registry handles: domains scanned,
// candidates per squatting type, and the sampled per-classification scan
// time (which includes the Aho-Corasick combo pass).
type matcherMetrics struct {
	scanned *obs.Counter
	hits    *obs.Counter
	byType  map[Type]*obs.Counter
	scanUS  *obs.Histogram
	calls   atomic.Uint64 // drives 1-in-scanSampleEvery timing
}

// InstrumentMetrics points the matcher's counters at reg. Call it after
// NewMatcher and before sharing the matcher across goroutines.
func (m *Matcher) InstrumentMetrics(reg *obs.Registry) {
	met := &matcherMetrics{
		scanned: reg.Counter("squat.match.scanned"),
		hits:    reg.Counter("squat.match.candidates"),
		byType:  make(map[Type]*obs.Counter, len(MatchTypes)),
		scanUS:  reg.Histogram("squat.match.scan_us", obs.MicrosBuckets),
	}
	for _, t := range MatchTypes {
		met.byType[t] = reg.Counter("squat.match.candidates." + t.String())
	}
	m.met = met
}

// InstrumentTrace points the matcher's scan-provenance sink at col (nil
// detaches). Like InstrumentMetrics, call it before sharing the matcher
// across goroutines. An unsampled domain costs one FNV hash.
func (m *Matcher) InstrumentTrace(col *trace.Collector) { m.trace = col }

// NewMatcher indexes the given brands for bulk classification.
func NewMatcher(brands []Brand) *Matcher {
	// A name of n bytes has at most 80n+37 distinct bits/typo labels, of
	// at most n+1 bytes each; sizing the index from those bounds spares it
	// every growth rehash and every arena copy.
	keys, bytes := 0, 0
	for _, b := range brands {
		n := 80*len(b.Name) + 40
		keys, bytes = keys+n, bytes+n*(len(b.Name)+1)
	}
	m := &Matcher{brands: brands, labels: newLabelIndex(keys, bytes)}
	names := make([]string, len(brands))
	var label, skel []byte
	for i, b := range brands {
		names[i] = b.Name
		label = append(label[:0], b.Name...)
		m.labels.upsert(label).name = int32(i)
		skel = confusables.AppendSkeleton(skel[:0], label)
		m.labels.upsert(skel).skel = int32(i)
	}
	for i, b := range brands {
		add := func(l []byte, t Type) { m.addEdit(l, i, t) }
		label = eachBitFlip(label, b.Name, add)
		label = eachTypo(label, b.Name, add)
	}
	m.labels.trim()
	m.ac = newAhoCorasick(names)
	edits, skeletons := m.buildGate()

	// Brand-universe hash: FNV-1a over the ordered brand domains. The brand
	// order is part of the universe on purpose — combo matching prefers the
	// longest brand, but equal-length ties resolve by index.
	bh := uint64(14695981039346656037)
	mixIn := func(s string) {
		for i := 0; i < len(s); i++ {
			bh ^= uint64(s[i])
			bh *= 1099511628211
		}
		bh ^= '\n'
		bh *= 1099511628211
	}
	for _, b := range brands {
		mixIn(b.Domain())
	}
	// Config fingerprint: the brand hash plus the derived index shape and
	// the rules version. Any change to the generator's edit tables or the
	// skeleton fold shows up in the index sizes; rule-logic changes must
	// bump matchRulesVersion.
	fp := bh ^ matchRulesVersion*0x9e3779b97f4a7c15
	fp ^= uint64(edits) * 0xbf58476d1ce4e5b9
	fp ^= uint64(skeletons) * 0x94d049bb133111eb
	m.rulesFP, m.fp = fp, fp
	return m
}

// Fingerprint identifies the matcher's full classification configuration:
// the brand universe plus the derived match indexes, the rules version,
// and — once AttachLM has run — the attached language model and its
// promotion threshold. Caches of Match results (internal/deltascan) key
// their validity on it — a differing fingerprint means cached verdicts
// may be stale and the cache must degrade to a full re-scan.
func (m *Matcher) Fingerprint() uint64 { return m.fp }

// AttachLM attaches a brand-language model: labels missing all five
// rule-based types are scored for brand-likeness and classified Generated
// at or above threshold (<= 0 means domlm.DefaultThreshold); a nil model
// detaches. Call before sharing the matcher across goroutines — like the
// instrumentation hooks, attachment is construction-time configuration,
// not runtime state.
//
// Fingerprint is a function of (rules, model, threshold): attaching a
// model — or a retrained or re-thresholded one — changes it exactly like a
// brand-set change does, so deltascan's retained candidates degrade to a full
// re-scan instead of serving verdicts computed under a different model,
// and attaching replaces whatever was attached before rather than
// folding on top of it.
func (m *Matcher) AttachLM(model *domlm.Model, threshold float64) {
	m.lm, m.lmGate, m.fp = nil, domlm.Gate{}, m.rulesFP
	if model == nil {
		return
	}
	if threshold <= 0 {
		threshold = domlm.DefaultThreshold
	}
	m.lm, m.lmGate = model, model.Gate(threshold)
	m.fp ^= model.Fingerprint() * 0x2545f4914f6cdd1d
	m.fp ^= math.Float64bits(threshold) * 0x9e3779b97f4a7c15
}

// addEdit records a generated label unless it collides with a real brand
// name (e.g. the omission typo of "apples" would be "apple") or an existing
// edit of an earlier-precedence type; equal types keep the first brand.
// Every brand name is indexed before the first edit, so e.name decides.
func (m *Matcher) addEdit(label []byte, brand int, typ Type) {
	e := m.labels.upsert(label)
	if e.name >= 0 || (e.edit >= 0 && Type(e.editType) <= typ) {
		return
	}
	e.edit, e.editType = int32(brand), int8(typ)
}

// Brands returns the indexed brand set.
func (m *Matcher) Brands() []Brand { return m.brands }

// Match classifies a single observed domain. The bool result reports
// whether the domain is a squatting domain of any indexed brand. Domains
// equal to a brand's own domain (or a subdomain of it) return false.
//
// Match borrows scratch buffers from a pool; scan loops that own a
// per-worker Scratch should call MatchString or MatchBytes directly.
func (m *Matcher) Match(domain string) (Candidate, bool) {
	s := scratchPool.Get().(*Scratch)
	c, ok := m.MatchString(domain, s)
	scratchPool.Put(s)
	return c, ok
}

// classify applies the five squatting rules in precedence order. It is the
// uninstrumented core shared by Match and Explain.
func (m *Matcher) classify(domain string) (Candidate, bool) {
	s := scratchPool.Get().(*Scratch)
	_, clean, _, _ := prescan(domain)
	s.norm = appendNormalized(s.norm[:0], domain)
	d1, d2 := lastTwoDots(s.norm)
	c, ok := m.classifyBytes(s.norm, clean, d1, d2, s)
	scratchPool.Put(s)
	return c, ok
}
