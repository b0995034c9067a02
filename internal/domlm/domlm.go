// Package domlm implements the brand-language model that detects
// generated squatting domains — names minted by a generative process
// trained on brand vocabulary, which share no edit-distance or confusable
// relationship with any single brand and therefore defeat the paper's
// five rule-based squatting types (the gap PhishReplicant, ACSAC '23, and
// DomainLynx, CCNC '25, document in the wild).
//
// The model is a character n-gram interpolated Markov chain over the
// registrable labels of the monitored brand universe. It scores the
// "brand-likeness" of an unseen label in [0, 1]: the per-character
// cross-entropy of the label under the brand model, compared against a
// uniform background over the DNS label alphabet, squashed through a
// logistic. Labels sampled from brand vocabulary score near 1; random
// registrations and dictionary compounds score low.
//
// Everything is deterministic by construction. Training is pure counting —
// order-invariant and worker-count-invariant (integer accumulation
// commutes) — so the same brand set always produces a byte-identical
// serialized model whose trailing fingerprint hash identifies the full
// model configuration (brand set, n-gram order, smoothing). The matcher
// folds that fingerprint into its own (squat.Matcher.AttachLM), which is
// how deltascan verdict caches learn that a model change invalidates
// cached verdicts.
package domlm

import "math"

// Symbol space. DNS labels are lowercase letters, digits and hyphens;
// anything else (a byte of a UTF-8 sequence, '_', ...) maps to one OOV
// symbol. The end marker is emitted, the start marker only ever appears
// in contexts.
const (
	symHyphen  = 36
	symOOV     = 37
	symEnd     = 38
	symStart   = 39
	numEmit    = 39 // emission classes: 0..38 (symStart is never emitted)
	symBase    = 40 // context radix: 0..39
	alphabet   = 37 // letters + digits + hyphen: the background support
	minOrder   = 2
	maxOrder   = 4
	maxLabelSz = 1 << 12 // scoring considers at most this many label bytes
)

// symTable maps an input byte to its symbol. Uppercase folds to the
// lowercase symbol so callers never need a normalization buffer.
var symTable [256]uint8

func init() {
	for i := range symTable {
		symTable[i] = symOOV
	}
	for c := byte('a'); c <= 'z'; c++ {
		symTable[c] = c - 'a'
		symTable[c-'a'+'A'] = c - 'a'
	}
	for c := byte('0'); c <= '9'; c++ {
		symTable[c] = 26 + c - '0'
	}
	symTable['-'] = symHyphen
}

// bgBits is the per-symbol information content of the uniform background
// model over the label alphabet: the reference against which brand-model
// cross-entropy is compared.
var bgBits = math.Log2(alphabet)

// scoreSharpness scales the logistic that maps the per-symbol bit
// advantage over the background to [0, 1]. Behavioural changes to the
// score mapping must bump ModelVersion.
const scoreSharpness = 1.0

// ModelVersion versions the scoring semantics and the binary model
// layout. It is part of the serialized header, so a version bump changes
// every model fingerprint and — through the matcher fingerprint —
// invalidates deltascan verdict caches, exactly like a brand-set change.
const ModelVersion = 1

// Config is the model shape. It is part of the fingerprint: changing
// Order or AddK produces a model with a different fingerprint even over
// an identical brand set.
type Config struct {
	// Order is the n-gram order (context length Order-1), clamped to
	// [2, 4]. The zero value means DefaultConfig's order.
	Order int
	// AddK is the add-k smoothing constant applied within each order.
	// The zero value means DefaultConfig's constant.
	AddK float64
}

// DefaultConfig returns the configuration the pipeline trains with:
// 4-grams with light smoothing. Calibrated so that at paper-bench noise
// scale (120k background registrations) the highest-scoring background
// domain stays ~0.02 below DefaultThreshold while brand vocabulary and
// model samples sit well above it.
func DefaultConfig() Config { return Config{Order: 4, AddK: 0.05} }

func (c Config) normalized() Config {
	def := DefaultConfig()
	if c.Order == 0 {
		c.Order = def.Order
	}
	if c.Order < minOrder {
		c.Order = minOrder
	}
	if c.Order > maxOrder {
		c.Order = maxOrder
	}
	if c.AddK <= 0 {
		c.AddK = def.AddK
	}
	return c
}

// ctxSize returns the number of contexts of order k (symBase^(k-1)).
func ctxSize(k int) int {
	n := 1
	for i := 1; i < k; i++ {
		n *= symBase
	}
	return n
}

// DefaultThreshold is the promotion threshold the pipeline attaches to
// the matcher: labels scoring at or above it (and long enough to carry
// signal) are flagged as Generated candidates. Calibrated on the
// synthetic world so that background noise — including the brand-adjacent
// hard negatives dnsx plants below the threshold — never crosses it at
// the pinned seeds, keeping scan precision intact.
const DefaultThreshold = 0.88

// MinLabelLen is the shortest label the promotion rule considers: very
// short labels carry too few n-grams to distinguish brand vocabulary
// from background noise.
const MinLabelLen = 6

// Model is a trained brand-language model. It is immutable after Train
// or Decode and safe for concurrent use by any number of scan workers.
type Model struct {
	cfg        Config
	brandCount int
	// brandSetHash is an order-invariant (commutative-sum) hash of the
	// deduplicated training labels: two models trained over the same label
	// set in any order share it.
	brandSetHash uint64
	// counts: for each order k in 1..cfg.Order, the dense emission counts
	// counts[k-1][ctx*numEmit+emit]. Dense arrays make serialization
	// canonical with no sorting step.
	counts [][]uint32
	// probs mirrors counts below the top order with the add-k-smoothed
	// conditional probabilities P_k(emit|ctx). Only sampling and the table
	// build read it; the top order's term is derived from counts on demand
	// (its dense array would be 20 MB at order 4).
	probs [][]float64
	// lambda holds the interpolation weights per order (fixed scheme:
	// doubling weight per order, normalized).
	lambda []float64
	// logp and rowOf are the scoring table: logp[rowOf[ctx]+emit] is log2 of
	// the interpolated probability of emit after the top-order context ctx.
	// Every lower-order context is a suffix of ctx, so the whole interpolation
	// is a function of (ctx, emit). A context training never saw has the
	// constant top-order term addK/(addK*numEmit), so its row depends only on
	// its order-(Order-1) suffix and is shared with every other unseen context
	// ending in that suffix: one row per suffix, then one per seen context.
	logp  []float64
	rowOf []uint32
	// fp is the model fingerprint: an FNV-1a hash over the canonical
	// serialization (version, order, smoothing, brand-set hash, counts).
	fp uint64
}

// Scratch is the per-worker argument of the byte scoring entry points.
// Scoring reads the label in place and keeps no buffer, so it has no
// fields; the type remains because callers declare and pass one.
type Scratch struct{}

// Config returns the model's (normalized) configuration.
func (m *Model) Config() Config { return m.cfg }

// BrandCount returns the number of distinct labels the model was trained
// over.
func (m *Model) BrandCount() int { return m.brandCount }

// Fingerprint identifies the full model: brand set, n-gram order,
// smoothing and format version. Two models with equal fingerprints score
// every input identically.
func (m *Model) Fingerprint() uint64 { return m.fp }

// smoothed is the add-k conditional probability of a cell with count c in a
// context whose smoothed total is denom. One expression for every order so
// the table, the sampler and the reference scorer agree to the bit.
func smoothed(c uint32, addK, denom float64) float64 {
	return (float64(c) + addK) / denom
}

// ctxDenom returns the smoothed total of the context whose numEmit cells
// are cs, and whether training saw the context at all.
func ctxDenom(cs []uint32, addK float64) (denom float64, seen bool) {
	var tot uint64
	for _, c := range cs {
		tot += uint64(c)
	}
	return float64(tot) + addK*numEmit, tot != 0
}

// buildDerived computes lambda, the lower-order probs and the scoring
// table from counts. Shared by Train and Decode so a decoded model scores
// byte-for-byte like the trainer's. Nothing here is serialized.
func (m *Model) buildDerived() {
	order := m.cfg.Order
	m.lambda = make([]float64, order)
	total := 0.0
	for k := 1; k <= order; k++ {
		m.lambda[k-1] = float64(uint64(1) << uint(k-1))
		total += m.lambda[k-1]
	}
	for k := range m.lambda {
		m.lambda[k] /= total
	}
	addK := m.cfg.AddK
	m.probs = make([][]float64, order-1)
	for k := 1; k < order; k++ {
		cs := m.counts[k-1]
		ps := make([]float64, len(cs))
		for ctx := 0; ctx < len(cs); ctx += numEmit {
			denom, _ := ctxDenom(cs[ctx:ctx+numEmit], addK)
			for e := 0; e < numEmit; e++ {
				ps[ctx+e] = smoothed(cs[ctx+e], addK, denom)
			}
		}
		m.probs[k-1] = ps
	}

	top := m.counts[order-1]
	suffixes := ctxSize(order - 1)
	denoms := make([]float64, ctxSize(order))
	rows := suffixes
	for ctx := range denoms {
		denom, seen := ctxDenom(top[ctx*numEmit:(ctx+1)*numEmit], addK)
		if seen {
			denoms[ctx] = denom
			rows++
		}
	}
	m.logp = make([]float64, 0, rows*numEmit)
	m.rowOf = make([]uint32, len(denoms))
	var zero [numEmit]uint32
	unseenDenom, _ := ctxDenom(zero[:], addK)
	appendRow := func(ctx int, cells []uint32, denom float64) {
		for e := 0; e < numEmit; e++ {
			p := 0.0
			for k := 1; k < order; k++ {
				p += m.lambda[k-1] * m.probs[k-1][ctx%ctxSize(k)*numEmit+e]
			}
			p += m.lambda[order-1] * smoothed(cells[e], addK, denom)
			m.logp = append(m.logp, math.Log2(p))
		}
	}
	for suffix := 0; suffix < suffixes; suffix++ {
		appendRow(suffix, zero[:], unseenDenom)
	}
	for ctx, denom := range denoms {
		if denom == 0 {
			m.rowOf[ctx] = uint32(ctx%suffixes) * numEmit
			continue
		}
		m.rowOf[ctx] = uint32(len(m.logp))
		appendRow(ctx, top[ctx*numEmit:(ctx+1)*numEmit], denom)
	}
}

// startCtx returns the all-start context value for order k.
//
//squat:hot
func startCtx(k int) uint32 {
	v := uint32(0)
	for i := 1; i < k; i++ {
		v = v*symBase + symStart
	}
	return v
}

// ctxMod[k-1] is symBase^(k-2): the modulus that rolls a context of
// order k forward by one symbol.
var ctxMod = [maxOrder]uint32{1, 1, symBase, symBase * symBase}

// walk sums the bits of one label — its bytes, then the end marker —
// under the interpolated chain: per symbol one context, one table load and
// one subtract, straight off the label. It returns as soon as the running
// sum exceeds limit: no table entry is positive (each P_k is at most 1 and
// the lambdas sum to exactly 1 in float64, so p <= 1 — TestTableNonPositive),
// and adding a non-negative term never lowers a float64 sum, so the total
// could only be larger. With limit +Inf it always returns the full sum.
// Generic over both byte views so the string and []byte entry points
// share it.
//
//squat:hot
func walk[T string | []byte](m *Model, label T, limit float64) float64 {
	logp, rowOf := m.logp, m.rowOf
	ctx := startCtx(m.cfg.Order)
	mod := ctxMod[m.cfg.Order-1]
	bits := 0.0
	for i := 0; i < len(label); i++ {
		sym := uint32(symTable[label[i]])
		bits -= logp[rowOf[ctx]+sym]
		if bits > limit {
			return bits
		}
		ctx = ctx%mod*symBase + sym
	}
	return bits - logp[rowOf[ctx]+symEnd]
}

// clip bounds a label to the bytes scoring considers.
//
//squat:hot
func clip[T string | []byte](label T) T {
	if len(label) > maxLabelSz {
		return label[:maxLabelSz]
	}
	return label
}

// logistic maps a label's total bits over n symbols to its score: the
// per-symbol bit advantage over the uniform background, squashed to [0, 1].
//
//squat:hot
func logistic(bits float64, n int) float64 {
	avg := bits / float64(n)
	return 1 / (1 + math.Exp2(scoreSharpness*(avg-bgBits)))
}

// scoreLabel scores one label: the full walk, then the logistic.
//
//squat:hot
func scoreLabel[T string | []byte](m *Model, label T) float64 {
	label = clip(label)
	return logistic(walk(m, label, math.Inf(1)), len(label)+1)
}

// ScoreLabelBytes scores one registrable label (raw bytes, any case; no
// dot splitting) for brand-likeness in [0, 1] without allocating.
//
//squat:hot
func (m *Model) ScoreLabelBytes(label []byte, _ *Scratch) float64 {
	return scoreLabel(m, label)
}

// ScoreLabel is ScoreLabelBytes for string labels.
func (m *Model) ScoreLabel(label string) float64 {
	return scoreLabel(m, label)
}

// gateSlack is the per-symbol margin, in bits, Gate adds to its cut before
// giving up on a label. The cut is exact only in real arithmetic; a label
// abandoned this far above it scores below the threshold by a relative
// 2^gateSlack-1 ≈ 7e-7, nine orders of magnitude more than the rounding of
// the few float64 operations between the sum and the score.
const gateSlack = 1e-6

// Gate answers "does this label score at or above a fixed threshold"
// without always finishing the walk. It is a value: build it once per
// (model, threshold) and share it freely.
type Gate struct {
	m         *Model
	threshold float64
	// perSym is the abandon point in bits per symbol: score >= threshold
	// iff bits/n <= bgBits + log2((1-threshold)/threshold)/scoreSharpness,
	// plus gateSlack. It is NaN — never exceeded, so the walk always
	// finishes — for a threshold outside [0, 1].
	perSym float64
}

// Gate returns the threshold test score(label) >= threshold as a Gate.
func (m *Model) Gate(threshold float64) Gate {
	perSym := bgBits + math.Log2((1-threshold)/threshold)/scoreSharpness + gateSlack
	return Gate{m: m, threshold: threshold, perSym: perSym}
}

// Pass reports ScoreLabelBytes(label) >= threshold, to the bit: a walk
// that is not abandoned ends in exactly that comparison.
//
//squat:hot
func (g Gate) Pass(label []byte) bool {
	label = clip(label)
	n := len(label) + 1
	limit := g.perSym * float64(n)
	bits := walk(g.m, label, limit)
	if bits > limit {
		return false
	}
	return logistic(bits, n) >= g.threshold
}

// labelOf extracts the registrable label of a raw domain with the
// package's own minimal split: one trailing dot dropped, label = the
// second-to-last dot-separated field (the whole input when it has no
// dots). Callers that know the effective TLD — the squat matcher, the
// core pipeline — score the properly-split label directly via
// ScoreLabel/ScoreLabelBytes; this standalone split exists so Score can
// take full domains (CLI, fuzzing) without importing the suffix list.
//
//squat:hot
func labelOf[T string | []byte](domain T) T {
	n := len(domain)
	if n > 0 && domain[n-1] == '.' {
		n--
	}
	domain = domain[:n]
	last := -1
	for i := n - 1; i >= 0; i-- {
		if domain[i] == '.' {
			last = i
			break
		}
	}
	if last < 0 {
		return domain
	}
	prev := -1
	for i := last - 1; i >= 0; i-- {
		if domain[i] == '.' {
			prev = i
			break
		}
	}
	return domain[prev+1 : last]
}

// Score scores a full domain name in [0, 1], splitting off the last
// dot-separated field as the TLD (see labelOf). Any byte sequence is
// accepted; unknown bytes map to the OOV symbol.
func (m *Model) Score(domain string) float64 {
	return m.ScoreLabel(string(labelOf(domain)))
}

// ScoreBytes is Score over raw bytes with caller-owned scratch — the
// zero-allocation entry point for scan loops that hold domains as byte
// slices into an mmap'd snapshot. For any input, ScoreBytes(b) ==
// Score(string(b)) bit-for-bit (FuzzScoreBytes pins this).
//
//squat:hot
func (m *Model) ScoreBytes(domain []byte, _ *Scratch) float64 {
	return scoreLabel(m, labelOf(domain))
}
