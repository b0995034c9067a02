package domlm

import "squatphi/internal/simrand"

// Sampling limits: generated labels are plausible registrable labels, so
// the walk never emits OOV, never starts or ends on a hyphen, and is
// length-bounded. The end symbol is suppressed below sampleMinLen and
// forced at sampleMaxLen.
const (
	sampleMinLen = 6
	sampleMaxLen = 20
)

// SampleLabel draws one label from the model — the generative process a
// "generated squat" registrant runs: names statistically charged with
// brand vocabulary that match no single brand by edit distance. All
// randomness comes from r, so a fixed seed yields a fixed label sequence
// (the webworld generator scenario depends on this).
func (m *Model) SampleLabel(r *simrand.RNG) string {
	order := m.cfg.Order
	var ctx [maxOrder]uint32
	for k := 1; k <= order; k++ {
		ctx[k-1] = startCtx(k)
	}
	addK := m.cfg.AddK
	top := m.counts[order-1]
	buf := make([]byte, 0, sampleMaxLen)
	for {
		// The top order has no probs array: its term comes from the counts,
		// with the context's denominator computed once per step.
		cells := top[int(ctx[order-1])*numEmit:][:numEmit]
		denom, _ := ctxDenom(cells, addK)
		// Interpolated emission distribution for the current context,
		// restricted to the symbols a label may continue with here.
		var p [numEmit]float64
		total := 0.0
		var prev byte
		if len(buf) > 0 {
			prev = buf[len(buf)-1]
		}
		for e := 0; e < numEmit; e++ {
			if !sampleAllowed(e, len(buf), prev) {
				continue
			}
			v := 0.0
			for k := 1; k < order; k++ {
				v += m.lambda[k-1] * m.probs[k-1][int(ctx[k-1])*numEmit+e]
			}
			v += m.lambda[order-1] * smoothed(cells[e], addK, denom)
			p[e] = v
			total += v
		}
		x := r.Float64() * total
		sym := -1
		for e := 0; e < numEmit; e++ {
			if p[e] <= 0 {
				continue
			}
			sym = e // rounding spill lands on the last allowed symbol
			x -= p[e]
			if x < 0 {
				break
			}
		}
		if sym < 0 || sym == symEnd {
			return string(buf)
		}
		buf = append(buf, symChar(sym))
		for k := 2; k <= order; k++ {
			ctx[k-1] = (ctx[k-1]%ctxMod[k-1])*symBase + uint32(sym)
		}
	}
}

// sampleAllowed reports whether symbol e may be emitted at position pos
// of a label under construction whose previous byte is prev.
func sampleAllowed(e, pos int, prev byte) bool {
	switch {
	case e == symOOV:
		return false
	case e == symEnd:
		return pos >= sampleMinLen && prev != '-'
	case pos >= sampleMaxLen:
		return false
	case e == symHyphen:
		return pos > 0 && pos < sampleMaxLen-1 && prev != '-'
	case pos == 0:
		return e < 26 // labels start with a letter
	default:
		return true
	}
}

// symChar maps an emittable non-end symbol back to its byte.
func symChar(e int) byte {
	switch {
	case e < 26:
		return 'a' + byte(e)
	case e < 36:
		return '0' + byte(e-26)
	default:
		return '-'
	}
}
