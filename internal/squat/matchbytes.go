package squat

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sync"
	"unicode"
	"unicode/utf8"

	"squatphi/internal/confusables"
	"squatphi/internal/domlm"
	"squatphi/internal/obs"
	"squatphi/internal/punycode"
)

// Scratch holds the reusable buffers of one matcher worker. The
// allocation-free match path (MatchString, MatchBytes) normalizes the
// observed domain, decodes an xn-- record and derives the confusable
// skeleton into these buffers instead of allocating per record; after a
// few records the buffers reach steady-state capacity and the miss path
// performs zero allocations.
//
// A Scratch must not be shared between concurrent goroutines. The zero
// value is ready to use.
type Scratch struct {
	norm  []byte // normalized domain: lowercase, no trailing dot
	skel  []byte // confusable skeleton of the registrable label
	uni   []byte // IDN-decoded domain of an ACE record
	runes []rune // code points of the ACE label being decoded
}

// scratchPool backs the scratch-less convenience entry points (Match,
// MatchAll, Explain) so they stay allocation-light without forcing every
// caller to thread a Scratch.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// fastEntry is one entry of the label index: which brand the label is the
// exact name of, the skeleton of, and a generated bits/typo edit of (-1
// where none). One lookup answers the first three classification rules in
// precedence order; only hyphenated labels go on to the combo automaton.
type fastEntry struct {
	name     int32
	skel     int32
	edit     int32
	editType Type
}

var noEntry = fastEntry{name: -1, skel: -1, edit: -1}

// The gate is a split-block Bloom filter: a key sets three bits inside the
// one 64-bit word its hash selects, so a membership test reads a single
// word. gateBitsPerKey, rounded up to a power-of-two word count, keeps the
// false-positive rate near 1 % (0.76 % measured) and the whole filter — 1 MB
// at the paper's 850 brands, 489K keys — inside L2.
const gateBitsPerKey = 16

// labelHash hashes a label to 64 bits: multiply-fold over 8-byte words,
// the last word read overlapping so no byte loop remains. It only has to
// spread index keys over the gate; nothing persistent depends on it.
//
//squat:hot
func labelHash(b []byte) uint64 {
	n := len(b)
	h := uint64(n) * 0x9e3779b97f4a7c15
	var t uint64
	switch {
	case n >= 8:
		for i := 0; i+8 < n; i += 8 {
			h = foldMul(h ^ binary.LittleEndian.Uint64(b[i:]))
		}
		t = binary.LittleEndian.Uint64(b[n-8:])
	case n >= 4:
		t = uint64(binary.LittleEndian.Uint32(b))<<32 | uint64(binary.LittleEndian.Uint32(b[n-4:]))
	case n > 0:
		t = uint64(b[0])<<16 | uint64(b[n>>1])<<8 | uint64(b[n-1])
	}
	return foldMul(h ^ t)
}

// foldMul is labelHash's mixing step: the two halves of a 128-bit product.
//
//squat:hot
func foldMul(x uint64) uint64 {
	hi, lo := bits.Mul64(x, 0xbf58476d1ce4e5b9)
	return hi ^ lo
}

// gateProbe maps a label hash to its word of a gate of the given length (a
// power of two) and the mask of the three bits the label owns there.
//
//squat:hot
func gateProbe(h uint64, words int) (word uint64, mask uint64) {
	return h >> 32 & uint64(words-1), 1<<(h&63) | 1<<(h>>6&63) | 1<<(h>>12&63)
}

// buildGate sizes and fills the gate from exactly the keys of fast — the
// reason it cannot turn a hit into a miss — and returns the two index
// sizes Fingerprint folds in: labels carrying an edit, distinct skeletons.
func (m *Matcher) buildGate() (edits, skeletons int) {
	words := 1
	for words*64 < len(m.fast)*gateBitsPerKey {
		words <<= 1
	}
	m.gate = make([]uint64, words)
	var buf []byte
	for k, e := range m.fast {
		buf = append(buf[:0], k...)
		word, mask := gateProbe(labelHash(buf), words)
		m.gate[word] |= mask
		if e.edit >= 0 {
			edits++
		}
		if e.skel >= 0 {
			skeletons++
		}
	}
	return edits, skeletons
}

// mayHold reports whether the gate admits label: always for a key of fast,
// about one time in a hundred for any other label.
//
//squat:hot
func (m *Matcher) mayHold(label []byte) bool {
	word, mask := gateProbe(labelHash(label), len(m.gate))
	return m.gate[word]&mask == mask
}

// lookup answers the label index for label, noEntry when it holds none.
// The map is probed only when the gate says the label may be a key.
//
//squat:hot
func (m *Matcher) lookup(label []byte) fastEntry {
	if m.mayHold(label) {
		if e, ok := m.fast[string(label)]; ok {
			return e
		}
	}
	return noEntry
}

// byteClass drives prescan: one table load classifies a raw input byte as
// ordinary (0), a label separator, in need of normalization (uppercase or
// non-ASCII), self-skeleton-breaking after lowering (a fold byte), or a
// possible second byte of a confusable pair. Built at init from the
// confusables tables so the two stay in lockstep by construction.
var byteClass [256]byte

const (
	classDot   = 1 << iota // '.': label separator, tracked for splitETLD
	classNorm              // uppercase or non-ASCII: needs normalization
	classDirty             // folds to another byte once lowered
	classSeq               // can end a multiSeq pair once lowered
)

func init() {
	for i := 0; i < 256; i++ {
		c := byte(i)
		if c >= utf8.RuneSelf {
			byteClass[i] = classNorm | classDirty
			continue
		}
		if c == '.' {
			byteClass[i] = classDot
			continue
		}
		if 'A' <= c && c <= 'Z' {
			byteClass[i] |= classNorm
			c += 'a' - 'A'
		}
		// DirtyASCII with a never-pairing prev isolates the fold predicate;
		// probing every prev finds the pair-second bytes.
		if confusables.DirtyASCII(0, c) {
			byteClass[i] |= classDirty
			continue
		}
		for prev := byte(1); prev < utf8.RuneSelf; prev++ {
			if confusables.DirtyASCII(prev, c) {
				byteClass[i] |= classSeq
				break
			}
		}
	}
}

// prescan walks a raw domain once and answers the questions of the match
// entry: does it need normalization (upper-case byte, trailing dot, or
// non-ASCII), is its normalized form pure ASCII that is its own
// confusable skeleton, and where are its last two '.' separators (-1 when
// absent; valid only when needNorm is false, since normalization shifts
// positions). The clean answer is conservative over the whole domain — a
// fold byte in the subdomain or TLD makes classifyBytes derive a clean
// label's skeleton anyway, which computes the same verdict, just slower.
//
//squat:hot
func prescan[T string | []byte](domain T) (needNorm, clean bool, d1, d2 int) {
	n := len(domain)
	if n > 0 && domain[n-1] == '.' {
		needNorm = true
	}
	clean = true
	d1, d2 = -1, -1
	var prev byte
	for i := 0; i < n; i++ {
		c := domain[i]
		f := byteClass[c]
		if f == 0 {
			prev = c
			continue
		}
		if f == classDot {
			d2, d1 = d1, i
			prev = c
			continue
		}
		if c >= utf8.RuneSelf {
			return true, false, 0, 0
		}
		if f&classNorm != 0 {
			needNorm = true
			c += 'a' - 'A'
		}
		if f&classDirty != 0 || (f&classSeq != 0 && confusables.DirtyASCII(prev, c)) {
			clean = false
			if needNorm {
				return true, false, 0, 0 // nothing left to learn
			}
		}
		prev = c
	}
	return needNorm, clean, d1, d2
}

// lastTwoDots recomputes the dot positions prescan could not carry across
// normalization.
//
//squat:hot
func lastTwoDots(norm []byte) (d1, d2 int) {
	d1 = bytes.LastIndexByte(norm, '.')
	if d1 < 0 {
		return -1, -1
	}
	return d1, bytes.LastIndexByte(norm[:d1], '.')
}

// MatchString classifies one observed domain using caller-owned scratch
// buffers. It is Match with the per-call scratch pool round trip factored
// out: a scan worker that owns a Scratch performs no allocations on the
// miss path (uninstrumented matcher; see BenchmarkMatchMiss and the
// bench-check gate).
//
//squat:hot
func (m *Matcher) MatchString(domain string, s *Scratch) (Candidate, bool) {
	needNorm, clean, d1, d2 := prescan(domain)
	if needNorm {
		s.norm = appendNormalized(s.norm[:0], domain)
		d1, d2 = lastTwoDots(s.norm)
	} else {
		s.norm = append(s.norm[:0], domain...)
	}
	met := m.met
	if met == nil {
		c, ok := m.classifyBytes(s.norm, clean, d1, d2, s)
		m.trace.ObserveScan(domain, ok)
		return c, ok
	}
	sampled := met.calls.Add(1)%scanSampleEvery == 1
	var sw obs.Stopwatch
	if sampled {
		sw = obs.StartStopwatch()
	}
	c, ok := m.classifyBytes(s.norm, clean, d1, d2, s)
	if sampled {
		met.scanUS.Observe(sw.Micros())
	}
	met.scanned.Inc()
	if ok {
		met.hits.Inc()
		met.byType[c.Type].Inc()
	}
	m.trace.ObserveScan(domain, ok)
	return c, ok
}

// MatchBytes classifies one observed domain given as raw bytes — the
// entry point for scanning mmap-backed snapshots (internal/snapfmt),
// where domains are byte slices into a file mapping and never exist as
// strings. Verdicts, metrics and trace sampling are identical to Match on
// the equivalent string; a string is materialized only at hit time (for
// the Candidate) or when the domain falls into the provenance head
// sample.
//
//squat:hot
func (m *Matcher) MatchBytes(domain []byte, s *Scratch) (Candidate, bool) {
	// Already-normalized input (every store record and generated snapshot
	// domain) is classified in place — no copy at all on the miss path.
	needNorm, clean, d1, d2 := prescan(domain)
	norm := domain
	if needNorm {
		s.norm = appendNormalized(s.norm[:0], domain)
		norm = s.norm
		d1, d2 = lastTwoDots(norm)
	}
	met := m.met
	if met == nil {
		c, ok := m.classifyBytes(norm, clean, d1, d2, s)
		m.trace.ObserveScanBytes(domain, ok)
		return c, ok
	}
	sampled := met.calls.Add(1)%scanSampleEvery == 1
	var sw obs.Stopwatch
	if sampled {
		sw = obs.StartStopwatch()
	}
	c, ok := m.classifyBytes(norm, clean, d1, d2, s)
	if sampled {
		met.scanUS.Observe(sw.Micros())
	}
	met.scanned.Inc()
	if ok {
		met.hits.Inc()
		met.byType[c.Type].Inc()
	}
	m.trace.ObserveScanBytes(domain, ok)
	return c, ok
}

// classifyBytes applies the five squatting rules in precedence order over
// a normalized domain. norm must be lowercase without a trailing dot;
// clean reports that the whole of norm is ASCII that is its own skeleton
// (a conservative prescan result — false only costs deriving the skeleton
// and a second lookup, never a different verdict); d1, d2 are the positions of the last
// two '.' bytes of norm (-1 when absent), carried over from prescan so
// the eTLD split costs no second pass. The returned Candidate copies norm
// at hit time only.
//
//squat:hot
func (m *Matcher) classifyBytes(norm []byte, clean bool, d1, d2 int, s *Scratch) (Candidate, bool) {
	label, tld := splitETLDAt(norm, d1, d2)
	if len(label) == 0 {
		return Candidate{}, false
	}

	// One gated lookup answers exact-name and edit-table, and homograph
	// too when the label is its own skeleton; otherwise the skeleton is
	// derived (into scratch, or through the IDN decode) and looked up.
	e := m.lookup(label)
	if e.name >= 0 {
		if eqBytesString(tld, m.brands[e.name].TLD) {
			return Candidate{}, false // the original site
		}
		return m.hit(norm, WrongTLD, int(e.name))
	}
	skel := e.skel
	if isACELabel(label) {
		skel = m.aceSkeleton(norm, s)
	} else if !clean {
		s.skel = confusables.AppendSkeleton(s.skel[:0], label)
		skel = m.lookup(s.skel).skel
	}
	if skel >= 0 {
		return m.hit(norm, Homograph, int(skel))
	}
	if e.edit >= 0 {
		return m.hit(norm, e.editType, int(e.edit))
	}
	return m.comboOrLM(norm, label)
}

// aceSkeleton applies the IDN homograph rule to a record whose registrable
// label is ACE (xn--): decode the whole domain, split it again, and ask
// the index whose skeleton the decoded label is (-1 for nobody's). It is
// SplitETLD(punycode.ToUnicode(norm)) and confusables.Skeleton on bytes in
// scratch — a hard mix is several percent xn-- records, and they are on
// the 0-allocs/op budget like every other miss. The split is redone on
// the decoded domain, not carried over from norm, because decoding any
// label can change it: paypal.xn--co-.uk is paypal.co.uk, a two-label
// suffix, and a Kelvin sign decoded beside an "r" lowers to the "kr" of
// co.kr.
//
//squat:hot
func (m *Matcher) aceSkeleton(norm []byte, s *Scratch) int32 {
	s.uni = s.uni[:0]
	for rest := norm; ; {
		dot := bytes.IndexByte(rest, '.')
		if dot < 0 {
			s.appendUnicodeLabel(rest)
			break
		}
		s.appendUnicodeLabel(rest[:dot])
		s.uni = append(s.uni, '.')
		rest = rest[dot+1:]
	}
	uni := s.uni
	if n := len(uni); n > 0 && uni[n-1] == '.' {
		uni = uni[:n-1]
	}
	d1, d2 := lastTwoDots(uni)
	label, _ := splitETLDAt(uni, d1, d2)
	s.skel = confusables.AppendSkeleton(s.skel[:0], label)
	return m.lookup(s.skel).skel
}

// appendUnicodeLabel appends one label of a lowercase domain to s.uni the
// way SplitETLD sees it after punycode.ToUnicode: valid punycode behind an
// xn-- prefix as its code points, lowered (a decoded Kelvin sign is a "k");
// any other label unchanged.
//
//squat:hot
func (s *Scratch) appendUnicodeLabel(label []byte) {
	if isACELabel(label) {
		var err error
		if s.runes, err = punycode.AppendDecode(s.runes[:0], label[len("xn--"):]); err == nil {
			for _, r := range s.runes {
				s.uni = utf8.AppendRune(s.uni, unicode.ToLower(r))
			}
			return
		}
	}
	s.uni = append(s.uni, label...)
}

// combo applies the final rule: a hyphenated label containing a brand
// name.
//
//squat:hot
func (m *Matcher) combo(norm, label []byte) (Candidate, bool) {
	if bytes.IndexByte(label, '-') < 0 {
		return Candidate{}, false
	}
	if best := m.ac.bestMatch(label); best >= 0 {
		return m.hit(norm, Combo, int(best))
	}
	return Candidate{}, false
}

// comboOrLM is the tail of classification: the combo rule, then — when a
// brand-language model is attached — the Generated promotion for labels
// the five rule-based types all missed. The gate reads the label in place
// and gives up on it as soon as it cannot reach the threshold, so the
// (overwhelmingly common) miss outcome stays cheap and at zero allocations
// (BenchmarkMatchMissLM and the bench-check gate pin the latter).
//
//squat:hot
func (m *Matcher) comboOrLM(norm, label []byte) (Candidate, bool) {
	if c, ok := m.combo(norm, label); ok {
		return c, ok
	}
	if m.lm != nil && len(label) >= domlm.MinLabelLen && m.lmGate.Pass(label) {
		return m.lmHit(norm)
	}
	return Candidate{}, false
}

// lmHit materializes a Generated candidate (hit time, like hit — the
// conversion allocation is deferred off the miss path). Generated hits
// carry no brand attribution: the model scores against the whole brand
// universe, not any one name.
//
//squat:cold
func (m *Matcher) lmHit(norm []byte) (Candidate, bool) {
	return Candidate{Domain: string(norm), Type: Generated}, true
}

// hit materializes a Candidate — the only allocation of the match path,
// deferred to hit time (hits are ~per-million events in a real snapshot).
//
//squat:cold
func (m *Matcher) hit(norm []byte, t Type, brand int) (Candidate, bool) {
	return Candidate{Domain: string(norm), Type: t, Brand: m.brands[brand]}, true
}

// appendNormalized appends the normalized form of domain — lowercase with
// one trailing dot removed, exactly strings.ToLower(strings.TrimSuffix(d,
// ".")) — to dst. Generic over both byte views so the string and []byte
// entry points share one implementation.
//
//squat:hot
func appendNormalized[T string | []byte](dst []byte, domain T) []byte {
	n := len(domain)
	if n > 0 && domain[n-1] == '.' {
		n--
	}
	for i := 0; i < n; i++ {
		c := domain[i]
		if c >= utf8.RuneSelf {
			return appendLowerRunes(dst, string(domain[i:n]))
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// appendLowerRunes is appendNormalized's non-ASCII tail: rune-by-rune
// Unicode lowering, mirroring strings.ToLower (invalid UTF-8 decodes to
// RuneError exactly as strings.Map replaces it).
//
//squat:hot
func appendLowerRunes(dst []byte, rest string) []byte {
	for _, r := range rest {
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}

// splitETLDAt is SplitETLD over an already-normalized domain whose last
// two '.' positions (d1, d2; -1 when absent) are already known, returning
// subslices instead of allocating: the registrable label and the
// effective TLD (nil for a bare label).
//
//squat:hot
func splitETLDAt(norm []byte, d1, d2 int) (label, tld []byte) {
	if d1 < 0 {
		return norm, nil
	}
	if d2 >= 0 && multiLabelSuffixes[string(norm[d2+1:])] {
		d3 := bytes.LastIndexByte(norm[:d2], '.')
		return norm[d3+1 : d2], norm[d2+1:]
	}
	return norm[d2+1 : d1], norm[d1+1:]
}

// splitETLDBytes is splitETLDAt with the dot positions computed here —
// the entry for callers without a prescan in hand.
func splitETLDBytes(norm []byte) (label, tld []byte) {
	d1, d2 := lastTwoDots(norm)
	return splitETLDAt(norm, d1, d2)
}

// isACELabel reports whether a normalized label carries the IDN "xn--"
// ACE prefix.
//
//squat:hot
func isACELabel(label []byte) bool {
	return len(label) >= 4 && label[0] == 'x' && label[1] == 'n' && label[2] == '-' && label[3] == '-'
}

// eqBytesString compares a byte slice to a string without conversion.
//
//squat:hot
func eqBytesString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}
