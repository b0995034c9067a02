package squat

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"squatphi/internal/confusables"
	"squatphi/internal/punycode"
)

// domainAlphabet lists the characters legal in a DNS label body.
const domainAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"

// alternateTLDs are the TLDs used by the wrongTLD generator and by the
// typo/bits/homograph generators when varying the suffix, mirroring the
// cheap and brand-style TLDs the paper observes (.pw, .tk, .top, .audi, ...).
var alternateTLDs = []string{
	"net", "org", "info", "biz", "pw", "tk", "ml", "ga", "cf", "top",
	"bid", "online", "site", "link", "download", "mobi", "audi", "es",
	"de", "in", "it", "nl", "pl", "io", "cc", "eu", "us", "co",
}

// comboAffixes are the concatenation words used by the combo generator,
// drawn from the attack categories in the paper's case studies: login
// harvesting, support scams, payroll scams, freight scams, giveaways.
var comboAffixes = []string{
	"login", "secure", "support", "online", "account", "verify", "signin",
	"security", "service", "help", "update", "mail", "app", "store",
	"pay", "payment", "wallet", "cash", "prize", "gift", "bonus", "promo",
	"freight", "drive", "jobs", "careers", "team", "portal", "mobile",
	"auth", "id", "my", "go", "get", "new", "official", "live", "web",
	"us", "uk", "int", "group", "learning", "grants", "selling", "auction",
	"story", "c",
}

// Generator mints candidate squatting domains for a brand. It is the
// repository's equivalent of DNSTwist/URLCrazy, extended per the paper with
// a complete homograph table, a wrongTLD module, and a combo module.
type Generator struct {
	// TLDs used for suffix variation. Defaults to alternateTLDs.
	TLDs []string
	// Affixes used for combo squatting. Defaults to comboAffixes.
	Affixes []string
	// MaxHomographSubstitutions bounds how many positions are substituted
	// simultaneously when generating IDN homographs (default 1; the matcher
	// detects any number via skeleton folding).
	MaxHomographSubstitutions int
}

// NewGenerator returns a Generator with the default wordlists.
func NewGenerator() *Generator {
	return &Generator{TLDs: alternateTLDs, Affixes: comboAffixes, MaxHomographSubstitutions: 1}
}

// Generate returns candidates of every squatting type for brand,
// deduplicated, with deterministic ordering within each type. A domain two
// types generate is listed once, under the first type in the order
// homograph, bits, typo, combo, wrongTLD.
func (g *Generator) Generate(brand Brand) []Candidate {
	return collect(brand, func(s *candidateSet) {
		s.addHomographs()
		s.addBitFlips()
		s.addTypos()
		for _, cs := range [][]Candidate{g.Combos(brand), g.WrongTLDs(brand)} {
			for _, c := range cs {
				if _, dup := s.seen[c.Domain]; !dup {
					s.keep(c)
				}
			}
		}
	})
}

// Homographs generates homograph squatting candidates: ASCII lookalikes
// (faceb00k, rn for m) and IDN substitutions encoded with punycode
// (xn--fcebook-8va.com).
func (g *Generator) Homographs(brand Brand) []Candidate {
	return collect(brand, (*candidateSet).addHomographs)
}

// BitFlips generates bits squatting candidates: domains whose name differs
// from the brand by a single flipped bit that still yields a legal
// domain character (Nikiforakis et al., paper §3.1).
func (g *Generator) BitFlips(brand Brand) []Candidate {
	return collect(brand, (*candidateSet).addBitFlips)
}

// Typos generates typo squatting candidates using the four mutations from
// the paper: insertion, omission, repetition, and vowel swap (reordering
// two consecutive characters).
func (g *Generator) Typos(brand Brand) []Candidate {
	return collect(brand, (*candidateSet).addTypos)
}

// The label enumerators below are the one definition of the bits, typo
// and homograph edits. Each writes every edited label of a brand name
// into buf, reusing it, calls yield with it and its squatting type, and
// returns buf for the next call; yield must neither keep nor modify the
// label. NewMatcher feeds the
// labels straight into its index and the Generator methods above turn
// them into Candidates, so neither builds a string for a label it does
// not keep. The order of the calls is the order of the Generator's
// output, and a label may come more than once: the Generator keeps the
// first, and the index finds the key it already holds. Names are taken
// byte by byte, as the lowercase DNS labels NewBrand gives.

// eachBitFlip yields name with one bit of one byte flipped, where the
// flipped byte is still a legal domain character.
func eachBitFlip(buf []byte, name string, yield func(label []byte, t Type)) []byte {
	buf = append(buf[:0], name...)
	for i := 0; i < len(name); i++ {
		for bit := uint(0); bit < 8; bit++ {
			if c := name[i] ^ (1 << bit); isDomainChar(c) {
				buf[i] = c
				if isEditLabel(buf, name) {
					yield(buf, Bits)
				}
			}
		}
		buf[i] = name[i]
	}
	return buf
}

// eachTypo yields name's typo edits in five runs: insertion of one
// domain character at each position (a hyphen inside the label, face-book,
// counts as typo, not combo, since no word is concatenated: paper Table
// 10); replacement of one character by another letter or digit (googl4;
// the matcher's precedence reclassifies confusable or one-bit
// replacements as homograph or bits); omission of one character;
// repetition of one character; and transposition of two consecutive
// unequal characters.
func eachTypo(buf []byte, name string, yield func(label []byte, t Type)) []byte {
	n := len(name)
	for i := 0; i <= n; i++ {
		buf = append(append(append(buf[:0], name[:i]...), 0), name[i:]...)
		for j := 0; j < len(domainAlphabet); j++ {
			buf[i] = domainAlphabet[j]
			if isEditLabel(buf, name) {
				yield(buf, Typo)
			}
		}
	}
	buf = append(buf[:0], name...)
	for i := 0; i < n; i++ {
		for j := 0; j < len(domainAlphabet)-1; j++ { // no hyphen
			if c := domainAlphabet[j]; c != name[i] {
				buf[i] = c
				if isEditLabel(buf, name) {
					yield(buf, Typo)
				}
			}
		}
		buf[i] = name[i]
	}
	for i := 0; i < n; i++ {
		buf = append(append(buf[:0], name[:i]...), name[i+1:]...)
		if isEditLabel(buf, name) {
			yield(buf, Typo)
		}
	}
	for i := 0; i < n; i++ {
		buf = append(append(buf[:0], name[:i+1]...), name[i:]...)
		if isEditLabel(buf, name) {
			yield(buf, Typo)
		}
	}
	buf = append(buf[:0], name...)
	for i := 0; i+1 < n; i++ {
		if name[i] != name[i+1] {
			buf[i], buf[i+1] = name[i+1], name[i]
			if isEditLabel(buf, name) {
				yield(buf, Typo)
			}
			buf[i], buf[i+1] = name[i], name[i+1]
		}
	}
	return buf
}

// eachHomograph yields name's homograph edits, in Unicode: each ASCII
// character replaced by each of its confusable runes and then by each of
// its visual sequences (m -> rn), position by position; then every
// occurrence of each of a, e, i, o, u, 1, l and 0 replaced at once by each
// of its ASCII confusables (faceb00k substitutes both 'o's), cheap and
// matching observed attacks.
func eachHomograph(buf []byte, name string, yield func(label []byte, t Type)) []byte {
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			continue
		}
		for _, sub := range homographSubs[name[i]] {
			buf = append(append(append(buf[:0], name[:i]...), sub...), name[i+1:]...)
			yield(buf, Homograph)
		}
	}
	for _, b := range bulkSubs {
		if strings.IndexByte(name, b.target) < 0 {
			continue
		}
		for _, v := range b.subs {
			buf = append(buf[:0], name...)
			for i, c := range buf {
				if c == b.target {
					buf[i] = v
				}
			}
			yield(buf, Homograph)
		}
	}
	return buf
}

// isEditLabel reports whether a bits or typo edit of name is a label worth
// listing: not empty, not name itself, and neither led nor ended by a
// hyphen.
func isEditLabel(label []byte, name string) bool {
	n := len(label)
	return n > 0 && label[0] != '-' && label[n-1] != '-' && string(label) != name
}

// homographSubs[c] lists what eachHomograph substitutes for the ASCII
// character c at one position: its confusable runes, UTF-8 encoded, then
// its visual sequences, each in the confusables table's order. bulkSubs
// lists, for each character it substitutes everywhere at once, that
// character's ASCII confusables.
var (
	homographSubs [utf8.RuneSelf][]string
	bulkSubs      []bulkSub
)

type bulkSub struct {
	target byte
	subs   []byte
}

func init() {
	for c := rune(0); c < utf8.RuneSelf; c++ {
		for _, v := range confusables.Variants(c) {
			homographSubs[c] = append(homographSubs[c], string(v))
		}
		homographSubs[c] = append(homographSubs[c], confusables.SequenceVariants(c)...)
	}
	for _, t := range []byte("aeiou1l0") {
		b := bulkSub{target: t}
		for _, v := range confusables.Variants(rune(t)) {
			if v < utf8.RuneSelf {
				b.subs = append(b.subs, byte(v))
			}
		}
		bulkSubs = append(bulkSubs, b)
	}
}

// candidateSet collects one brand's candidates in order, dropping a domain
// already listed. Each domain is assembled in a reused buffer and becomes
// a string only when it is kept, so a candidate's Domain owns its bytes
// and pins nothing else.
type candidateSet struct {
	brand         Brand
	seen          map[string]struct{}
	out           []Candidate
	label, domain []byte
}

// candidateSets recycles sets between calls, so that a Generator method
// allocates its result and the domains it keeps, and no map, list or
// buffer it throws away.
var candidateSets = sync.Pool{New: func() any { return &candidateSet{seen: map[string]struct{}{}} }}

// collect runs add over an empty set for brand and returns what it
// listed in a slice of its own, nil when nothing.
func collect(brand Brand, add func(s *candidateSet)) []Candidate {
	s := candidateSets.Get().(*candidateSet)
	s.brand = brand
	add(s)
	var out []Candidate
	if len(s.out) > 0 {
		out = slices.Clone(s.out)
	}
	clear(s.seen)
	clear(s.out) // the pool must not pin the domains
	s.out = s.out[:0]
	candidateSets.Put(s)
	return out
}

// keep lists c, whose domain is not listed yet.
func (s *candidateSet) keep(c Candidate) {
	s.seen[c.Domain] = struct{}{}
	s.out = append(s.out, c)
}

// insert lists the domain in s.domain as a candidate of type typ unless
// it is listed already.
func (s *candidateSet) insert(typ Type) {
	if _, dup := s.seen[string(s.domain)]; !dup {
		s.keep(Candidate{Domain: string(s.domain), Type: typ, Brand: s.brand})
	}
}

// addEdit lists label under the brand's TLD as a candidate of type typ.
func (s *candidateSet) addEdit(label []byte, typ Type) {
	s.domain = append(append(append(s.domain[:0], label...), '.'), s.brand.TLD...)
	s.insert(typ)
}

func (s *candidateSet) addBitFlips() { s.label = eachBitFlip(s.label, s.brand.Name, s.addEdit) }

func (s *candidateSet) addTypos() { s.label = eachTypo(s.label, s.brand.Name, s.addEdit) }

// addHomographs lists the homograph edits in their IDNA ASCII form, as
// punycode.ToASCII gives it for the whole domain: an ASCII label only
// lowercased, any other one punycode-encoded, under the TLD's own ASCII
// form. An edit that does not encode, or that lowercases back to the
// brand's name, is dropped.
func (s *candidateSet) addHomographs() {
	tld, err := punycode.ToASCII(s.brand.TLD)
	if err != nil {
		return
	}
	name := s.brand.Name
	s.label = eachHomograph(s.label, name, func(label []byte, t Type) {
		d := s.domain[:0]
		if ascii := bytes.IndexFunc(label, func(r rune) bool { return r >= utf8.RuneSelf }) < 0; ascii {
			for _, c := range label {
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				d = append(d, c)
			}
		} else {
			ace, err := punycode.ToASCII(string(label))
			if err != nil {
				return
			}
			d = append(d, ace...)
		}
		if string(d) == name {
			return
		}
		s.domain = append(append(d, '.'), tld...)
		s.insert(t)
	})
}

// Combos generates combo squatting candidates: the brand name concatenated
// with an affix via a hyphen, attached at the head or the tail.
func (g *Generator) Combos(brand Brand) []Candidate {
	affixes := g.Affixes
	if affixes == nil {
		affixes = comboAffixes
	}
	var out []Candidate
	for _, a := range affixes {
		if a == brand.Name {
			continue
		}
		out = append(out,
			Candidate{Domain: brand.Name + "-" + a + "." + brand.TLD, Type: Combo, Brand: brand},
			Candidate{Domain: a + "-" + brand.Name + "." + brand.TLD, Type: Combo, Brand: brand},
		)
	}
	return out
}

// WrongTLDs generates wrongTLD candidates: the brand name unchanged under a
// different effective TLD.
func (g *Generator) WrongTLDs(brand Brand) []Candidate {
	tlds := g.TLDs
	if tlds == nil {
		tlds = alternateTLDs
	}
	var out []Candidate
	for _, tld := range tlds {
		if tld == brand.TLD {
			continue
		}
		out = append(out, Candidate{Domain: brand.Name + "." + tld, Type: WrongTLD, Brand: brand})
	}
	return out
}

func isDomainChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-'
}
