package simrand

import (
	"math"
	"testing"
)

// sparseLoop is the per-draw loop Sparse must reproduce exactly.
func sparseLoop(r *RNG, n int, p float64, hit func(i int)) {
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			hit(i)
		}
	}
}

// sparseRun drives Sparse (or the loop) from state with a hit that draws
// from the generator on some indices, and returns every hit with the value
// it drew plus the final state.
func sparseRun(fast bool, state uint64, n int, p float64) (hits [][2]uint64, final uint64) {
	r := &RNG{state: state}
	hit := func(i int) {
		var v uint64
		if i%3 == 0 {
			v = r.Uint64()
		}
		hits = append(hits, [2]uint64{uint64(i), v})
	}
	if fast {
		r.Sparse(n, p, hit)
	} else {
		sparseLoop(r, n, p, hit)
	}
	return hits, r.state
}

func checkSparse(t testing.TB, state uint64, n int, p float64) {
	t.Helper()
	wantHits, wantState := sparseRun(false, state, n, p)
	gotHits, gotState := sparseRun(true, state, n, p)
	if gotState != wantState {
		t.Fatalf("state %#x n=%d p=%v: final state %#x, loop %#x", state, n, p, gotState, wantState)
	}
	if len(gotHits) != len(wantHits) {
		t.Fatalf("state %#x n=%d p=%v: %d hits, loop %d", state, n, p, len(gotHits), len(wantHits))
	}
	for i := range gotHits {
		if gotHits[i] != wantHits[i] {
			t.Fatalf("state %#x n=%d p=%v: hit %d = %v, loop %v", state, n, p, i, gotHits[i], wantHits[i])
		}
	}
}

// TestSparseMatchesFloat64Loop compares Sparse with the loop it replaces
// over random seeds, and over boundary draws: the next draw exactly at
// ceil(p·2⁵³), one below and one above, for a p whose p·2⁵³ is an integer
// (0.25) and ones where it is not. Random seeds land on those draws with
// probability ~2⁻⁵³, so a floor-for-ceil or <=-for-< mistake shows only
// in the boundary half.
func TestSparseMatchesFloat64Loop(t *testing.T) {
	t.Run("seeds", func(t *testing.T) {
		ps := []float64{0, -1, math.NaN(), 0x1p-60, 0.002, 0.25, 0.5, 0.999999, 1, 1.5}
		ns := []int{0, 1, 2, 3, 7, 63, 1001, 4099}
		seeds := New(2024)
		for s := 0; s < 50; s++ {
			state := seeds.Uint64()
			for _, p := range ps {
				for _, n := range ns {
					checkSparse(t, state, n, p)
				}
			}
		}
	})
	t.Run("boundary", func(t *testing.T) {
		for _, p := range []float64{0.25, 0.002, 0x1p-60, 0.999999} {
			c := uint64(math.Ceil(p * (1 << 53)))
			for _, u := range []uint64{c - 1, c, c + 1} {
				for _, low := range []uint64{0, 0x7ff} {
					checkBoundary(t, p, c, u, low)
				}
			}
		}
	})
}

// unxorshift inverts x ^= x >> k.
func unxorshift(x uint64, k uint) uint64 {
	y := x
	for i := uint(0); i < 64; i += k {
		y = x ^ y>>k
	}
	return y
}

// oddInverse returns the multiplicative inverse of an odd c modulo 2⁶⁴.
func oddInverse(c uint64) uint64 {
	inv := c // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// unmix inverts mix.
func unmix(x uint64) uint64 {
	x = unxorshift(x, 31) * oddInverse(0x94d049bb133111eb)
	x = unxorshift(x, 27) * oddInverse(0xbf58476d1ce4e5b9)
	return unxorshift(x, 30)
}

// stateBefore returns a state whose next Uint64()>>11 is u; low fills the
// 11 bits Float64 discards.
func stateBefore(u, low uint64) uint64 {
	return unmix(u<<11|low&0x7ff) - gamma
}

func TestUnmixInvertsMix(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		x := r.Uint64()
		if got := mix(unmix(x)); got != x {
			t.Fatalf("mix(unmix(%#x)) = %#x", x, got)
		}
		if z := premix(x); z^z>>31 != mix(x) {
			t.Fatalf("premix(%#x) is not mix without its last xorshift", x)
		}
	}
}

// checkBoundary starts Sparse from a state whose next draw is u, where c
// is ceil(p·2⁵³): the draw must hit exactly when u < c.
func checkBoundary(t *testing.T, p float64, c, u, low uint64) {
	t.Helper()
	state := stateBefore(u, low)
	if got := (&RNG{state: state}).Float64(); got != float64(u)/(1<<53) {
		t.Fatalf("stateBefore(%d) draws %v", u, got)
	}
	wantHit := float64(u)/(1<<53) < p
	if wantHit != (u < c) {
		t.Fatalf("p=%v u=%d: Float64() < p is %v, u < ceil is %v", p, u, wantHit, u < c)
	}
	hits, _ := sparseRun(true, state, 1, p)
	if (len(hits) == 1) != wantHit {
		t.Fatalf("p=%v u=%d (ceil %d): Sparse hit=%v, want %v", p, u, c, len(hits) == 1, wantHit)
	}
	for _, n := range []int{1, 2, 5} {
		checkSparse(t, state, n, p)
	}
}

func FuzzSparseVsLoop(f *testing.F) {
	f.Add(uint64(1), math.Float64bits(0.002), uint16(4096))
	f.Add(uint64(7), math.Float64bits(0.25), uint16(100))
	f.Add(uint64(9), math.Float64bits(math.NaN()), uint16(33))
	f.Add(uint64(0), math.Float64bits(math.Inf(1)), uint16(17))
	f.Add(uint64(3), math.Float64bits(-0.5), uint16(5))
	f.Add(stateBefore(1<<51, 0), math.Float64bits(0.25), uint16(1))
	f.Fuzz(func(t *testing.T, seed, pbits uint64, n uint16) {
		checkSparse(t, seed, int(n)%4097, math.Float64frombits(pbits))
	})
}
