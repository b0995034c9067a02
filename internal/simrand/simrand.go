// Package simrand provides a deterministic, splittable pseudo-random number
// generator used by every synthetic-data generator in this repository.
//
// Determinism matters here: the paper's experiments run against a fixed
// snapshot of the Internet, and ours run against a fixed synthetic world.
// Splitting lets independent subsystems (DNS snapshot, web world, PhishTank
// feed, ...) derive uncorrelated streams from one root seed without sharing
// mutable state, so concurrent generators stay reproducible.
//
// The generator is SplitMix64 (Steele et al., "Fast Splittable Pseudorandom
// Number Generators"), which has a trivially splittable state and passes
// BigCrush for the 64-bit outputs we need.
package simrand

import "math"

// RNG is a splittable SplitMix64 generator. The zero value is a valid
// generator seeded with 0; prefer New to make the seed explicit.
type RNG struct {
	state uint64
}

// gamma is SplitMix64's state increment, one per draw.
const gamma = 0x9e3779b97f4a7c15

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// Split derives an independent generator from r, keyed by label, without
// disturbing r's own stream. Two splits with different labels produce
// uncorrelated streams; the same label always produces the same stream.
func (r *RNG) Split(label string) *RNG {
	h := r.state + gamma
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	return &RNG{state: mix(h)}
}

// SplitN derives an independent generator keyed by an index, for fan-out
// over numbered shards.
func (r *RNG) SplitN(n uint64) *RNG {
	return &RNG{state: mix(r.state ^ (n+1)*0xbf58476d1ce4e5b9)}
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// premix is mix without its last xorshift, which leaves the top 31 bits
// as they are: mix(z)>>33 == premix(z)>>33. It repeats mix's first two
// steps rather than mix calling it, so mix compiles as it always has.
func premix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return (z ^ (z >> 27)) * 0x94d049bb133111eb
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix(r.state)
}

// Sparse calls hit(i), in increasing i, for each i in [0, n) whose draw
// falls below p. It consumes exactly the stream of
//
//	for i := 0; i < n; i++ {
//		if r.Float64() < p {
//			hit(i)
//		}
//	}
//
// and hit may draw from r itself: the state is written back before each
// call and read again after it. The loop keeps the state in a local and
// compares integers, because Float64() < p holds exactly when
// Uint64()>>11 < ceil(p·2⁵³) (u/2⁵³ and p·2⁵³ are both exact). So p <= 0
// or NaN hits nothing and still advances the state by n draws, and p >= 1
// hits every draw. The cost is one SplitMix64 mix per element, less its
// last xorshift: that step leaves the top 31 bits alone, so they decide
// the compare unless they tie with the bound's, and only a tie (one draw
// in 2³¹) finishes the mix.
func (r *RNG) Sparse(n int, p float64, hit func(i int)) {
	if n <= 0 {
		return
	}
	if !(p > 0) {
		r.state += uint64(n) * gamma
		return
	}
	// Hit when mix(s) < lim<<11, i.e. Uint64()>>11 < lim. hi is the
	// bound's top 31 bits; at p >= 1 it is past every value z>>33 takes.
	lim := uint64(1 << 53)
	if p < 1 {
		lim = uint64(math.Ceil(p * (1 << 53)))
	}
	bound, hi := lim<<11, lim>>22
	s := r.state
	for i := 0; i < n; i++ {
		s += gamma
		z := premix(s)
		if h := z >> 33; h < hi || h == hi && z^z>>31 < bound {
			r.state = s
			hit(i)
			s = r.state
		}
	}
	r.state = s
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill for
	// simulation workloads; modulo bias is negligible for n << 2^64.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, via the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	// Avoid log(0) by nudging u1 off zero.
	u1 := r.Float64()
	if u1 == 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Zipf returns an integer in [0, n) drawn from a Zipf-like distribution with
// exponent s (s > 0). Small ranks are heavily favoured, matching the skewed
// per-brand distributions the paper measures (Figures 3, 5, 11).
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 0 {
		panic("simrand: Zipf with non-positive n")
	}
	// Inverse-CDF sampling over the harmonic weights. For simulation sizes
	// (n up to a few thousand brands) a linear scan is fine and allocation
	// free when the caller caches nothing.
	target := r.Float64() * harmonic(n, s)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		if sum >= target {
			return k - 1
		}
	}
	return n - 1
}

func harmonic(n int, s float64) float64 {
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
	}
	return sum
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Pick returns a uniformly chosen element of xs. It panics on empty input.
func Pick[T any](r *RNG, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// Letters returns an n-character lowercase ASCII letter string.
func (r *RNG) Letters(n int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	return string(b)
}
