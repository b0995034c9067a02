package domlm

import (
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"squatphi/internal/simrand"
)

// refModel is the scorer this package ran before the log2 table: one
// dense probs array per order (20 MB at order 4), and per symbol a load
// from each, the interpolation and a math.Log2. It is kept, unshared with
// the table build, as the slow reference every fast path is held to: the
// benchmark generates its inputs from scores, so "equal" means the same
// float64 bit for bit.
type refModel struct {
	order  int
	lambda []float64
	probs  [][]float64
}

func newRefModel(m *Model) *refModel {
	order := m.cfg.Order
	r := &refModel{order: order, lambda: make([]float64, order), probs: make([][]float64, order)}
	total := 0.0
	for k := 1; k <= order; k++ {
		r.lambda[k-1] = float64(uint64(1) << uint(k-1))
		total += r.lambda[k-1]
	}
	for k := range r.lambda {
		r.lambda[k] /= total
	}
	addK := m.cfg.AddK
	for k := 1; k <= order; k++ {
		cs := m.counts[k-1]
		ps := make([]float64, len(cs))
		for ctx := 0; ctx < len(cs); ctx += numEmit {
			var tot uint64
			for e := 0; e < numEmit; e++ {
				tot += uint64(cs[ctx+e])
			}
			denom := float64(tot) + addK*numEmit
			for e := 0; e < numEmit; e++ {
				ps[ctx+e] = (float64(cs[ctx+e]) + addK) / denom
			}
		}
		r.probs[k-1] = ps
	}
	return r
}

func (r *refModel) score(label []byte) float64 {
	if len(label) > maxLabelSz {
		label = label[:maxLabelSz]
	}
	syms := make([]uint8, 0, len(label)+1)
	for _, c := range label {
		syms = append(syms, symTable[c])
	}
	syms = append(syms, symEnd)

	var ctx [maxOrder]uint32
	for k := 1; k <= r.order; k++ {
		ctx[k-1] = startCtx(k)
	}
	bits := 0.0
	for _, sym := range syms {
		p := 0.0
		for k := 1; k <= r.order; k++ {
			p += r.lambda[k-1] * r.probs[k-1][int(ctx[k-1])*numEmit+int(sym)]
		}
		bits -= math.Log2(p)
		for k := 2; k <= r.order; k++ {
			ctx[k-1] = (ctx[k-1]%ctxMod[k-1])*symBase + uint32(sym)
		}
	}
	avg := bits / float64(len(syms))
	return 1 / (1 + math.Exp2(scoreSharpness*(avg-bgBits)))
}

// universeNames is the paper-scale training set: the 850 registrable
// labels of brands.Select(brands.DefaultConfig()), committed as testdata
// because internal/brands imports internal/squat, which imports this
// package.
var universeNames = sync.OnceValue(func() []string {
	b, err := os.ReadFile("testdata/universe_names.txt")
	if err != nil {
		panic(err)
	}
	names := strings.Fields(string(b))
	if len(names) != 850 {
		panic("testdata/universe_names.txt does not hold the 850-name universe")
	}
	return names
})

// pair is a model beside its reference.
type pair struct {
	m   *Model
	ref *refModel
}

// universePairs trains one model per order over the universe.
var universePairs = sync.OnceValue(func() []pair {
	var out []pair
	for order := minOrder; order <= maxOrder; order++ {
		m := Train(universeNames(), Config{Order: order})
		out = append(out, pair{m, newRefModel(m)})
	}
	return out
})

// fixedThresholds are the gate thresholds every label is tried at: the
// logistic's midpoint, the pipeline's default, and one stricter.
var fixedThresholds = []float64{0.5, DefaultThreshold, 0.95}

// checkLabel holds one label to the reference: the score is the same
// float64, the byte and string entries agree, and at every threshold the
// gate answers exactly ref >= θ.
func checkLabel(t testing.TB, p pair, label []byte, thresholds []float64) {
	t.Helper()
	want := p.ref.score(label)
	if got := p.m.ScoreLabelBytes(label, nil); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("order %d: ScoreLabelBytes(%q) = %v (%#x), reference %v (%#x)",
			p.m.cfg.Order, label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got := p.m.ScoreLabel(string(label)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("order %d: ScoreLabel(%q) = %v, reference %v", p.m.cfg.Order, label, got, want)
	}
	for _, th := range thresholds {
		if got := p.m.Gate(th).Pass(label); got != (want >= th) {
			t.Fatalf("order %d: Gate(%v).Pass(%q) = %v, reference score %v", p.m.cfg.Order, th, label, got, want)
		}
	}
}

// adjacent returns the thresholds that separate a gate from its score by
// one ulp on either side, and the score itself.
func adjacent(score float64) []float64 {
	return []float64{math.Nextafter(score, -1), score, math.Nextafter(score, 2)}
}

// ldhOOV is the alphabet of the random labels: every letter, digit and
// the hyphen, upper case, and bytes that map to the OOV symbol.
const ldhOOV = "abcdefghijklmnopqrstuvwxyz0123456789-ABCXYZ_.\x00\x80\xff"

// propertyLabel draws the i-th label of the property corpus: random
// LDH/OOV bytes, two brand halves spliced, a brand with one byte changed,
// and the edge lengths.
func propertyLabel(r *simrand.RNG, names []string, i int, buf []byte) []byte {
	buf = buf[:0]
	switch i % 8 {
	case 0, 1, 2:
		for n := r.Intn(24); n > 0; n-- {
			buf = append(buf, ldhOOV[r.Intn(len(ldhOOV))])
		}
	case 3, 4:
		a, b := simrand.Pick(r, names), simrand.Pick(r, names)
		buf = append(buf, a[:r.Intn(len(a)+1)]...)
		buf = append(buf, b[r.Intn(len(b)+1):]...)
	case 5, 6:
		buf = append(buf, simrand.Pick(r, names)...)
		buf[r.Intn(len(buf))] = ldhOOV[r.Intn(len(ldhOOV))]
	default:
		n := r.Intn(2)
		if i%512 == 7 { // the 4 KB labels are a handful, not an eighth
			n = maxLabelSz - 1 + r.Intn(3)
		}
		for ; n > 0; n-- {
			buf = append(buf, ldhOOV[r.Intn(36)])
		}
	}
	return buf
}

// forEachPropertyLabel runs fn over the property corpus: n labels, the
// same sequence for a given n.
func forEachPropertyLabel(n int, fn func(i int, label []byte)) {
	names := universeNames()
	r := simrand.New(20).Split("domlm-property")
	var buf []byte
	for i := 0; i < n; i++ {
		buf = propertyLabel(r, names, i, buf)
		fn(i, buf)
	}
}

// propertyCorpusSize is the number of labels TestScoreMatchesReference
// tries per order: over a million in all, a tenth of that under -short
// (where the race detector multiplies the cost).
func propertyCorpusSize() int {
	if testing.Short() {
		return 35_000
	}
	return 350_000
}

// TestScoreMatchesReference is the contract of the log2 table and of the
// gate's early exit: for models of order 2, 3 and 4 over the 850-name
// universe, every label of the property corpus scores to the same
// float64 as the four-array loop, and the gate equals reference >= θ at
// the fixed thresholds — and, for a sample, at the label's own score and
// its two neighbours, where one ulp decides.
func TestScoreMatchesReference(t *testing.T) {
	for _, p := range universePairs() {
		forEachPropertyLabel(propertyCorpusSize(), func(i int, label []byte) {
			checkLabel(t, p, label, fixedThresholds)
			if i%16 == 0 {
				checkLabel(t, p, label, adjacent(p.ref.score(label)))
			}
		})
	}
}

// FuzzGateVsReference is TestScoreMatchesReference's body on fuzzed
// labels and thresholds (any float64: NaN, negative, above one).
func FuzzGateVsReference(f *testing.F) {
	f.Add([]byte("paypal"), 0.88)
	f.Add([]byte("qzxjwk-7"), 0.5)
	f.Add([]byte(""), 0.95)
	f.Add([]byte("PAYPAL\xff_login"), math.NaN())
	f.Add([]byte("facebook"), 1.0)
	f.Add([]byte("google"), 0.0)
	f.Add([]byte("amazon-secure"), -1.0)
	f.Add([]byte(strings.Repeat("a", maxLabelSz+1)), 2.0)
	f.Fuzz(func(t *testing.T, label []byte, threshold float64) {
		for _, p := range universePairs() {
			checkLabel(t, p, label, append(adjacent(p.ref.score(label)), threshold, 0.5, DefaultThreshold, 0.95))
		}
	})
}

// TestTableNonPositive pins the premise of the early exit at its worst
// case: a model in which every P_k('a'|ctx) is exactly 1 (saturated counts,
// a vanishing smoothing constant) has the largest interpolated
// probability any model can reach, and its table still holds no positive
// entry — the lambdas sum to exactly 1 in float64 at every order. The
// gate then agrees with the reference on it like on any other model.
func TestTableNonPositive(t *testing.T) {
	for order := minOrder; order <= maxOrder; order++ {
		m := Train(nil, Config{Order: order, AddK: 1e-300})
		for _, cs := range m.counts {
			for ctx := 0; ctx < len(cs); ctx += numEmit {
				cs[ctx] = math.MaxUint32
			}
		}
		m.buildDerived()
		if l := m.logp[m.rowOf[0]]; l != 0 {
			t.Fatalf("order %d: log2 p('a') = %v in the saturated model, want exactly 0", order, l)
		}
		for i, l := range m.logp {
			if l > 0 {
				t.Fatalf("order %d: table entry %d is %v > 0", order, i, l)
			}
		}
		p := pair{m, newRefModel(m)}
		for _, l := range []string{"", "a", "aaaaaaaa", "ab", "zzzz"} {
			checkLabel(t, p, []byte(l), append(adjacent(p.ref.score([]byte(l))), 0.5, 0.9736, 0.9737, 1))
		}
	}
}

// TestGateExitsEarly pins that the early exit is live, not merely sound:
// on a noise label the walk is abandoned with less than the full sum.
func TestGateExitsEarly(t *testing.T) {
	m := universePairs()[maxOrder-minOrder].m
	label := []byte("qzxjwkvbnmqzxjwk")
	g := m.Gate(DefaultThreshold)
	limit := g.perSym * float64(len(label)+1)
	full := walk(m, label, math.Inf(1))
	if got := walk(m, label, limit); !(got > limit && got < full) {
		t.Fatalf("walk under limit %v returned %v; the full sum is %v, so it was not abandoned part-way", limit, got, full)
	}
}
