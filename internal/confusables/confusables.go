// Package confusables provides a homoglyph (visually confusable character)
// table and a skeleton transform in the style of Unicode UTS #39.
//
// The paper (§3.1) found that existing tools like DNSTwist map only part of
// the confusable space — e.g. 13 of the 23 characters that resemble "a" —
// and missed homograph squatting domains as a result. This package keeps a
// single table that serves both directions:
//
//   - generation: Variants(r) lists characters an attacker could substitute
//     for r when minting a homograph domain;
//   - detection: Skeleton(s) folds every confusable to a canonical ASCII
//     prototype, so a homograph and its target produce the same skeleton.
//
// The table is a curated subset of the Unicode confusables data covering the
// Latin, Cyrillic and Greek lookalikes relevant to domain labels, plus the
// ASCII-internal confusions (0/o, 1/l, rn/m, vv/w, ...) used by real
// squatters.
package confusables

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// toASCII maps each confusable rune to the ASCII prototype it imitates.
// Multi-rune prototypes (e.g. æ -> "ae") are allowed.
var toASCII = map[rune]string{
	// --- Latin letters with diacritics ---
	'à': "a", 'á': "a", 'â': "a", 'ã': "a", 'ä': "a", 'å': "a", 'ā': "a", 'ă': "a", 'ą': "a", 'ǎ': "a",
	'ạ': "a", 'ả': "a", 'ấ': "a", 'ầ': "a", 'ậ': "a", 'ắ': "a", 'ằ': "a", 'ǻ': "a", 'ɑ': "a",
	'è': "e", 'é': "e", 'ê': "e", 'ë': "e", 'ē': "e", 'ĕ': "e", 'ė': "e", 'ę': "e", 'ě': "e",
	'ì': "i", 'í': "i", 'î': "i", 'ï': "i", 'ī': "i", 'ĭ': "i", 'į': "i", 'ı': "i",
	'ò': "o", 'ó': "o", 'ô': "o", 'õ': "o", 'ö': "o", 'ō': "o", 'ŏ': "o", 'ő': "o", 'ǒ': "o", 'ø': "o",
	'ù': "u", 'ú': "u", 'û': "u", 'ü': "u", 'ū': "u", 'ŭ': "u", 'ů': "u", 'ű': "u", 'ų': "u",
	'ý': "y", 'ÿ': "y", 'ŷ': "y",
	'ç': "c", 'ć': "c", 'ĉ': "c", 'ċ': "c", 'č': "c",
	'ñ': "n", 'ń': "n", 'ņ': "n", 'ň': "n",
	'ś': "s", 'ŝ': "s", 'ş': "s", 'š': "s",
	'ź': "z", 'ż': "z", 'ž': "z",
	'ĝ': "g", 'ğ': "g", 'ġ': "g", 'ģ': "g",
	'ĺ': "l", 'ļ': "l", 'ľ': "l", 'ŀ': "l", 'ł': "l",
	'ŕ': "r", 'ŗ': "r", 'ř': "r",
	'ť': "t", 'ţ': "t", 'ŧ': "t",
	'ď': "d", 'đ': "d",
	'ĥ': "h", 'ħ': "h",
	'ĵ': "j", 'ķ': "k", 'ŵ': "w",
	// --- Cyrillic lookalikes ---
	'а': "a", 'е': "e", 'о': "o", 'р': "p", 'с': "c", 'х': "x", 'у': "y",
	'і': "i", 'ј': "j", 'ѕ': "s", 'һ': "h", 'ԁ': "d", 'ԛ': "q", 'ԝ': "w",
	'в': "b", 'к': "k", 'м': "m", 'н': "h", 'т': "t", 'ь': "b", 'г': "r",
	'п': "n", 'и': "u", 'л': "n", 'д': "d", 'б': "b", 'з': "3", 'ч': "4",
	'ж': "x", 'ф': "f", 'ц': "u", 'ш': "w", 'щ': "w", 'э': "e", 'ю': "io", 'я': "r", 'ы': "bi", 'й': "u", 'ъ': "b",
	// --- Greek lookalikes ---
	'α': "a", 'β': "b", 'ε': "e", 'η': "n", 'ι': "i", 'κ': "k", 'ν': "v",
	'ο': "o", 'ρ': "p", 'τ': "t", 'υ': "u", 'χ': "x", 'ω': "w", 'γ': "y",
	'μ': "u", 'σ': "o", 'ϲ': "c", 'ϳ': "j", 'π': "n", 'δ': "d", 'λ': "l",
	'θ': "o", 'φ': "o", 'ψ': "y", 'ξ': "e", 'ζ': "z", 'ς': "s", 'ά': "a", 'έ': "e", 'ί': "i", 'ό': "o", 'ύ': "u", 'ή': "n", 'ώ': "w",
	// --- ASCII-internal confusions ---
	'0': "o", '1': "l", '3': "e", '5': "s",
	// --- Ligatures / composites ---
	'æ': "ae", 'œ': "oe", 'ß': "ss", 'ĳ': "ij",
}

// multiSeq maps multi-character ASCII sequences to the single character they
// imitate visually (and vice versa during generation).
var multiSeq = map[string]string{
	"rn": "m",
	"vv": "w",
	"cl": "d",
	"nn": "m", // at small font sizes
}

// variants is the reverse index: ASCII prototype -> confusable substitutes.
// It is built from the raw curated table, so generation keeps offering 'з'
// as a substitute for "3" even though detection folds both to "e".
var variants map[string][]rune

// fold is toASCII transitively closed: when a prototype character is itself
// confusable ('з' -> "3" and '3' -> "e"), the chain is followed to a fixed
// point. Skeleton uses this closed table — without the closure it was not
// idempotent (Skeleton("з") == "3" but Skeleton("3") == "e").
var fold map[rune]string

// multiSeqKeys is the deterministic application order of the multiSeq
// collapse: the map's keys, sorted once at init. Skeleton previously
// rebuilt and re-sorted this slice on every call — at DNS-scan volume that
// alone was two allocations and a sort per record.
var multiSeqKeys []string

// seqPair is one byte-level multiSeq rule: the two-byte sequence ab
// collapses to rep. All curated sequences are ASCII pairs with single-byte
// replacements; init asserts this so the byte fast path stays exact.
type seqPair struct{ a, b, rep byte }

// seqPairs mirrors multiSeq in multiSeqKeys order for the byte path.
var seqPairs []seqPair

// asciiFold is the byte fast path of the closed fold table: asciiFold[c]
// is the single-byte prototype for an ASCII byte the table folds, or 0
// when c folds to itself. Built at init; init asserts that every ASCII
// fold in the curated table really is single-byte-to-single-byte.
var asciiFold [128]byte

// seqSecond marks bytes that can end a multiSeq pair, so the per-byte
// cleanliness scan pays one table load before touching the pair list.
var seqSecond [128]bool

// dirtyFlags fuses the two per-byte cleanliness predicates — "folds to
// another byte" and "can end a multiSeq pair" — into one table, so
// DirtyASCII answers the common clean byte with a single load.
var dirtyFlags [128]byte

const (
	dirtyFold      = 1 << 0
	dirtySeqSecond = 1 << 1
)

func init() {
	variants = make(map[string][]rune)
	for r, proto := range toASCII {
		variants[proto] = append(variants[proto], r)
	}
	for proto := range variants {
		rs := variants[proto]
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		variants[proto] = rs
	}

	fold = make(map[rune]string, len(toASCII))
	for r, proto := range toASCII {
		// Chains in the curated data are at most two hops; the bound turns
		// an accidental future cycle into a visible test failure (Skeleton
		// idempotence) rather than an infinite loop here.
		for hop := 0; hop < 4; hop++ {
			var b strings.Builder
			changed := false
			for _, pr := range proto {
				if p, ok := toASCII[pr]; ok {
					b.WriteString(p)
					changed = true
				} else {
					b.WriteRune(pr)
				}
			}
			if !changed {
				break
			}
			proto = b.String()
		}
		fold[r] = proto
	}

	multiSeqKeys = make([]string, 0, len(multiSeq))
	for k := range multiSeq {
		multiSeqKeys = append(multiSeqKeys, k)
	}
	sort.Strings(multiSeqKeys)
	for _, k := range multiSeqKeys {
		rep := multiSeq[k]
		if len(k) != 2 || len(rep) != 1 || k[0] >= 0x80 || k[1] >= 0x80 || rep[0] >= 0x80 {
			panic("confusables: multiSeq entries must be ASCII pair -> ASCII byte: " + k)
		}
		seqPairs = append(seqPairs, seqPair{a: k[0], b: k[1], rep: rep[0]})
		seqSecond[k[1]] = true
		dirtyFlags[k[1]] |= dirtySeqSecond
	}
	for r, proto := range fold {
		if r < 0x80 {
			if len(proto) != 1 || proto[0] >= 0x80 {
				panic("confusables: ASCII fold entries must map to one ASCII byte")
			}
			asciiFold[byte(r)] = proto[0]
			dirtyFlags[byte(r)] |= dirtyFold
		}
	}
}

// Variants returns the confusable substitutes for an ASCII character, in a
// deterministic order. The returned slice must not be modified.
func Variants(ascii rune) []rune {
	return variants[string(ascii)]
}

// SequenceVariants returns visually confusable ASCII sequence substitutions
// for a character: e.g. 'm' -> ["rn", "nn"]. Deterministic order.
func SequenceVariants(ascii rune) []string {
	var out []string
	for seq, target := range multiSeq {
		if target == string(ascii) {
			out = append(out, seq)
		}
	}
	sort.Strings(out)
	return out
}

// IsConfusable reports whether r is a known confusable for some ASCII
// character (excluding identity).
func IsConfusable(r rune) bool {
	_, ok := toASCII[r]
	return ok
}

// Skeleton folds every confusable character of s to its ASCII prototype and
// collapses multi-character visual sequences ("rn" -> "m"), producing a
// canonical form: a homograph domain and its target share a skeleton.
// The transform is idempotent: Skeleton(Skeleton(s)) == Skeleton(s).
func Skeleton(s string) string {
	if selfSkeleton(s) {
		return s
	}
	return string(AppendSkeleton(nil, []byte(s)))
}

// AppendSkeleton appends Skeleton(string(src)) to dst and returns the
// extended slice. It is the allocation-free form of Skeleton for hot
// loops: with a reused dst buffer of sufficient capacity it performs no
// allocations on ASCII input.
//
//squat:hot
func AppendSkeleton(dst, src []byte) []byte {
	start := len(dst)
	ascii := true
	for i := 0; i < len(src); i++ {
		if src[i] >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	if ascii {
		for i := 0; i < len(src); i++ {
			c := src[i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if f := asciiFold[c]; f != 0 {
				c = f
			}
			dst = append(dst, c)
		}
	} else {
		// Mirror strings.ToLower + Fold rune by rune; invalid UTF-8 decodes
		// to RuneError exactly as strings.Map replaces it.
		for i := 0; i < len(src); {
			r, size := utf8.DecodeRune(src[i:])
			i += size
			r = unicode.ToLower(r)
			if p, ok := fold[r]; ok {
				dst = append(dst, p...)
			} else {
				dst = utf8.AppendRune(dst, r)
			}
		}
	}
	return collapseSeqs(dst, start)
}

// collapseSeqs applies the multiSeq pair collapse to buf[start:] in place,
// in deterministic key order until fixpoint — byte-for-byte the semantics
// of repeated strings.ReplaceAll over the sorted keys (left-to-right,
// non-overlapping per key; replacements may cascade, e.g. "rnn" -> "mn"
// then the next round's "nn" never re-forms, while "rrn" -> "rm").
//
//squat:hot
func collapseSeqs(buf []byte, start int) []byte {
	for {
		// One combined pass first: if no pair occurs anywhere (the common
		// case), skip the per-key replacement passes entirely.
		found := false
	scan:
		for i := start + 1; i < len(buf); i++ {
			if c := buf[i]; c < utf8.RuneSelf && seqSecond[c] {
				for _, p := range seqPairs {
					if buf[i-1] == p.a && buf[i] == p.b {
						found = true
						break scan
					}
				}
			}
		}
		if !found {
			return buf
		}
		for _, p := range seqPairs {
			w := start
			for r := start; r < len(buf); {
				if r+1 < len(buf) && buf[r] == p.a && buf[r+1] == p.b {
					buf[w] = p.rep
					w++
					r += 2
				} else {
					buf[w] = buf[r]
					w++
					r++
				}
			}
			buf = buf[:w]
		}
	}
}

// selfSkeleton reports whether b is pure ASCII and already its own
// skeleton: no byte the fold table touches, no upper-case letter, and no
// multiSeq pair. For such labels a caller can reuse the label bytes as
// the skeleton without computing anything — the common case for the
// overwhelmingly-ASCII background of a DNS snapshot. It is generic over
// both byte views, so the string-keyed cold paths (Skeleton, matcher
// construction) share the exact predicate without a conversion.
//
//squat:hot
func selfSkeleton[T string | []byte](b T) bool {
	var prev byte
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= utf8.RuneSelf || asciiFold[c] != 0 || ('A' <= c && c <= 'Z') {
			return false
		}
		if i > 0 && seqSecond[c] {
			for _, p := range seqPairs {
				if prev == p.a && c == p.b {
					return false
				}
			}
		}
		prev = c
	}
	return true
}

// DirtyASCII reports whether lowercase-ASCII byte c — preceded by prev —
// breaks the self-skeleton property: the fold table maps c to another
// byte (e.g. '1' -> 'l'), or (prev, c) forms a multiSeq confusable pair
// (e.g. 'r','n' -> 'm'). Both bytes must be < 128. Callers fuse it into
// an existing byte scan; the common (clean) case costs one table load.
//
//squat:hot
func DirtyASCII(prev, c byte) bool {
	f := dirtyFlags[c]
	if f == 0 {
		return false
	}
	if f&dirtyFold != 0 {
		return true
	}
	for _, p := range seqPairs {
		if prev == p.a && c == p.b {
			return true
		}
	}
	return false
}
