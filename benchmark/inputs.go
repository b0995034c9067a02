package main

import (
	"math"
	"sort"
	"strings"

	"squatphi/internal/brands"
	"squatphi/internal/confusables"
	"squatphi/internal/dnsx"
	"squatphi/internal/domlm"
	"squatphi/internal/punycode"
	"squatphi/internal/simrand"
	"squatphi/internal/squat"
)

// Every input of every workload comes out of this file, from the seed
// alone: the same seed gives byte-identical inputs (inputs_test.go), a
// different seed different ones.

// universe is the paper's brand universe (702 brands by construction plus
// the per-category fill: 850 registrable domains), the matcher's brand set
// in every workload but detect-pages, which monitors its world's own.
func universe() *brands.Universe { return brands.Select(brands.DefaultConfig()) }

// plantStride is the share of the generator's squatting variants a zone
// holds as registered squats: one in fifty, about 13K of 656K.
const plantStride = 50

// plantedVariants returns every stride-th squatting variant of the brand
// set, starting at seed%stride so different seeds register different
// squats.
func plantedVariants(sb []squat.Brand, stride int, seed uint64) []string {
	gen := squat.NewGenerator()
	var out []string
	i := int(seed % uint64(stride))
	for _, b := range sb {
		for _, c := range gen.Generate(b) {
			if i%stride == 0 {
				out = append(out, c.Domain)
			}
			i++
		}
	}
	return out
}

// matching keeps the domains the matcher's string path accepts: the set an
// oracle may demand of a scan. (A variant of one brand can be another
// brand's own domain, which is no squat.)
func matching(m *squat.Matcher, domains []string) []string {
	var out []string
	for _, d := range domains {
		if _, ok := m.Match(d); ok {
			out = append(out, d)
		}
	}
	return out
}

// zoneSpec is the scan-zone input: noise records plus the planted squats.
func zoneSpec(sb []squat.Brand, noise int, seed uint64) dnsx.SnapshotSpec {
	return dnsx.SnapshotSpec{
		Planted:      plantedVariants(sb, plantStride, seed),
		NoiseRecords: noise,
		Seed:         seed,
	}
}

// foreignRunes are non-Latin letters with no ASCII lookalike: an IDN label
// holding one cannot be a homograph of a brand.
var foreignRunes = func() []rune {
	var out []rune
	for _, r := range "中文日本語한국어ไทยहिन्दीעבריתខ្មែរ" {
		if r > 0x7f && !confusables.IsConfusable(r) {
			out = append(out, r)
		}
	}
	return out
}()

// benignIDN mints an xn-- domain that matches no brand: random letters
// around one foreign rune, drawn again in the rare case the matcher
// accepts the ACE form (a two-letter brand beside the encoder's hyphen
// reads as a combo squat).
func benignIDN(r *simrand.RNG, m *squat.Matcher) string {
	for {
		label := r.Letters(2+r.Intn(5)) + string(simrand.Pick(r, foreignRunes)) + r.Letters(2+r.Intn(5))
		ascii, err := punycode.ToASCII(label + ".com")
		if err != nil {
			continue // letters around one BMP rune always encode
		}
		if _, ok := m.Match(ascii); !ok {
			return ascii
		}
	}
}

// hardMixSpec is the scan-zone-lm input, total records split as
//
//	90.0% noise
//	 2.5% xn-- homographs of brands (squat.Generator.Homographs)
//	 2.5% xn-- labels that match nothing
//	 3.5% near-threshold negatives (SnapshotSpec.BrandNoise)
//	 0.75% planted rule-based squats
//	 0.75% squats sampled from the brand-language model that the
//	       LM-attached matcher accepts
//
// so the LM gate, the hit path and the IDN path are all on the scan's
// critical path. The homograph pool is finite; if it is smaller than its
// share the shortfall goes to noise (sizes record what was generated).
func hardMixSpec(u *brands.Universe, m *squat.Matcher, model *domlm.Model, total int, seed uint64) dnsx.SnapshotSpec {
	rng := simrand.New(seed).Split("hard-mix")
	sb := u.SquatBrands()

	var homographs []string
	gen := squat.NewGenerator()
	for _, b := range sb {
		for _, c := range gen.Homographs(b) {
			if strings.HasPrefix(c.Domain, "xn--") {
				homographs = append(homographs, c.Domain)
			}
		}
	}
	hr := rng.Split("homographs")
	hr.Shuffle(len(homographs), func(i, j int) { homographs[i], homographs[j] = homographs[j], homographs[i] })
	if want := total * 25 / 1000; len(homographs) > want {
		homographs = homographs[:want]
	}
	planted := homographs

	ir := rng.Split("benign-idn")
	for i := 0; i < total*25/1000; i++ {
		planted = append(planted, benignIDN(ir, m))
	}

	rule := plantedVariants(sb, plantStride, seed)
	if want := total * 75 / 10000; len(rule) > want {
		rule = rule[:want]
	}
	planted = append(planted, rule...)

	// Generated squats: model samples the LM-attached matcher accepts.
	// Sampling is bounded so a model that rarely clears the threshold
	// cannot stall set-up.
	gr := rng.Split("generated")
	want := total * 75 / 10000
	for tries := 0; want > 0 && tries < 40*want; tries++ {
		d := model.SampleLabel(gr) + ".com"
		if _, ok := m.Match(d); ok {
			planted = append(planted, d)
			want--
		}
	}

	brandNoise := total * 35 / 1000
	return dnsx.SnapshotSpec{
		Planted:           planted,
		BrandNoise:        model,
		BrandNoiseRecords: brandNoise,
		NoiseRecords:      total - len(planted) - brandNoise,
		Seed:              seed,
	}
}

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s from a precomputed
// cumulative table (simrand.RNG.Zipf rescans the whole harmonic series on
// every draw, which at 300K domains would be the benchmark's hottest
// loop).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	return z
}

func (z *zipf) draw(r *simrand.RNG) int {
	k := sort.SearchFloat64s(z.cdf, r.Float64()*z.cdf[len(z.cdf)-1])
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}
