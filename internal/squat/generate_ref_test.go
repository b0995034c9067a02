package squat

import (
	"slices"
	"strings"
	"testing"

	"squatphi/internal/confusables"
	"squatphi/internal/punycode"
	"squatphi/internal/simrand"
)

// The ref* functions are the Generator as it stood before the label
// enumerators: every variant built as a string, split back apart with
// SplitETLD, and deduplicated per type and then once more in Generate.
// They are the oracle the enumerators are held to.

func refGenerate(g *Generator, brand Brand) []Candidate {
	var out []Candidate
	out = append(out, refHomographs(brand)...)
	out = append(out, refBitFlips(brand)...)
	out = append(out, refTypos(brand)...)
	out = append(out, g.Combos(brand)...)
	out = append(out, g.WrongTLDs(brand)...)
	return refDedupe(out)
}

func refHomographs(brand Brand) []Candidate {
	name := brand.Name
	seen := map[string]bool{}
	var out []Candidate
	add := func(label string) {
		ascii, err := punycode.ToASCII(label + "." + brand.TLD)
		if err != nil || seen[ascii] {
			return
		}
		lbl, _ := SplitETLD(ascii)
		if lbl == name {
			return
		}
		seen[ascii] = true
		out = append(out, Candidate{Domain: ascii, Type: Homograph, Brand: brand})
	}
	for i, r := range name {
		if r == '-' {
			continue
		}
		for _, v := range confusables.Variants(r) {
			add(name[:i] + string(v) + name[i+len(string(r)):])
		}
		for _, seq := range confusables.SequenceVariants(r) {
			add(name[:i] + seq + name[i+len(string(r)):])
		}
	}
	for _, target := range "aeiou1l0" {
		if !strings.ContainsRune(name, target) {
			continue
		}
		for _, v := range confusables.Variants(target) {
			if v < 0x80 {
				add(strings.ReplaceAll(name, string(target), string(v)))
			}
		}
	}
	return out
}

func refBitFlips(brand Brand) []Candidate {
	name := brand.Name
	seen := map[string]bool{}
	var out []Candidate
	for i := 0; i < len(name); i++ {
		for bit := uint(0); bit < 8; bit++ {
			c := name[i] ^ (1 << bit)
			if !isDomainChar(c) || c == name[i] {
				continue
			}
			label := name[:i] + string(c) + name[i+1:]
			if label == name || strings.HasPrefix(label, "-") || strings.HasSuffix(label, "-") {
				continue
			}
			d := label + "." + brand.TLD
			if !seen[d] {
				seen[d] = true
				out = append(out, Candidate{Domain: d, Type: Bits, Brand: brand})
			}
		}
	}
	return out
}

func refTypos(brand Brand) []Candidate {
	name := brand.Name
	seen := map[string]bool{}
	var out []Candidate
	add := func(label string) {
		if label == name || label == "" || strings.HasPrefix(label, "-") || strings.HasSuffix(label, "-") {
			return
		}
		d := label + "." + brand.TLD
		if !seen[d] {
			seen[d] = true
			out = append(out, Candidate{Domain: d, Type: Typo, Brand: brand})
		}
	}
	for i := 0; i <= len(name); i++ {
		for _, c := range "abcdefghijklmnopqrstuvwxyz0123456789-" {
			add(name[:i] + string(c) + name[i:])
		}
	}
	for i := 0; i < len(name); i++ {
		for _, c := range "abcdefghijklmnopqrstuvwxyz0123456789" {
			if byte(c) != name[i] {
				add(name[:i] + string(c) + name[i+1:])
			}
		}
	}
	for i := 0; i < len(name); i++ {
		add(name[:i] + name[i+1:])
	}
	for i := 0; i < len(name); i++ {
		add(name[:i+1] + string(name[i]) + name[i+1:])
	}
	for i := 0; i+1 < len(name); i++ {
		if name[i] == name[i+1] {
			continue
		}
		add(name[:i] + string(name[i+1]) + string(name[i]) + name[i+2:])
	}
	return out
}

func refDedupe(cs []Candidate) []Candidate {
	seen := make(map[string]bool, len(cs))
	out := cs[:0]
	for _, c := range cs {
		if !seen[c.Domain] {
			seen[c.Domain] = true
			out = append(out, c)
		}
	}
	return out
}

// refIndex builds the label index the way NewMatcher built it from the
// string generator: names, skeletons, then each brand's bit flips and
// typos split back out of their domains.
func refIndex(brands []Brand) *labelIndex {
	x := newLabelIndex(0, 0)
	for i, b := range brands {
		x.upsert([]byte(b.Name)).name = int32(i)
		x.upsert([]byte(confusables.Skeleton(b.Name))).skel = int32(i)
	}
	for i, b := range brands {
		for _, c := range append(refBitFlips(b), refTypos(b)...) {
			label, _ := SplitETLD(c.Domain)
			e := x.upsert([]byte(label))
			if e.name >= 0 || (e.edit >= 0 && Type(e.editType) <= c.Type) {
				continue
			}
			e.edit, e.editType = int32(i), int8(c.Type)
		}
	}
	return x
}

// refBrands draws n brands with names of 1–12 characters over the domain
// alphabet (hyphens, digits, repeated and confusable letters all occur)
// under single- and two-label TLDs and none.
func refBrands(r *simrand.RNG, n int) []Brand {
	const alphabet = "aaeeiioo01l3s5mnrvwcdbpq-" + domainAlphabet
	tlds := []string{"com", "co.uk", "de", ""}
	bs := make([]Brand, n)
	for i := range bs {
		name := make([]byte, 1+r.Intn(12))
		for j := range name {
			name[j] = alphabet[r.Intn(len(alphabet))]
		}
		bs[i] = Brand{Name: string(name), TLD: tlds[r.Intn(len(tlds))]}
	}
	return bs
}

// TestGeneratorVsReference holds every Generator method built on a label
// enumerator to the string generator, candidate for candidate and in
// order, over the test brand sets, names that repeat every letter with an
// ASCII lookalike (so the whole-name substitutions are not duplicates of
// single ones), and random names.
func TestGeneratorVsReference(t *testing.T) {
	g := NewGenerator()
	repeats := []Brand{{Name: "seesoo-ll55", TLD: "com"}, {Name: "ollo0ee", TLD: "co.uk"}}
	bs := append(slices.Concat(testBrands, collidingBrands, parityBrands, repeats), refBrands(simrand.New(5).Split("generator"), 600)...)
	for _, b := range bs {
		for _, tc := range []struct {
			name      string
			got, want []Candidate
		}{
			{"Generate", g.Generate(b), refGenerate(g, b)},
			{"Homographs", g.Homographs(b), refHomographs(b)},
			{"BitFlips", g.BitFlips(b), refBitFlips(b)},
			{"Typos", g.Typos(b), refTypos(b)},
		} {
			if !slices.Equal(tc.got, tc.want) {
				t.Fatalf("%s(%+v): %d candidates, reference %d; first difference at %d", tc.name, b, len(tc.got), len(tc.want), firstDiff(tc.got, tc.want))
			}
		}
	}
}

func firstDiff(a, b []Candidate) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestIndexVsReference holds NewMatcher's label index to the one the
// string generator built, key for key, over random brand sets whose names
// collide often.
func TestIndexVsReference(t *testing.T) {
	r := simrand.New(9).Split("index")
	for round := 0; round < 20; round++ {
		bs := refBrands(r, 1+r.Intn(60))
		got, _ := indexDigest(NewMatcher(bs).labels)
		want, keys := indexDigest(refIndex(bs))
		if got != want {
			t.Fatalf("round %d: index digest %s, reference %s (%d keys) over %+v", round, got, want, keys, bs)
		}
	}
}
