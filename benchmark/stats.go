package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the samples at or below it.
// It sorts a copy, so xs keeps its order. An empty input reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)]
}

// nearestRank is the 0-based index of the nearest-rank p-th percentile
// among n sorted samples.
func nearestRank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k - 1
}

// median is the median as Python's statistics.median takes it — the mean
// of the middle two for an even count — which is what the acceptance
// driver compares. Runs report it and -compare gates on it, so the two
// agree. An empty input reads 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// highestTail returns the highest percentile of tailLadder that still has
// at least ten of the n samples strictly beyond its nearest rank — the
// tail the choosing-metrics guide allows a timing to be reported at. With
// fewer than twenty samples only the median qualifies.
func highestTail(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-1-nearestRank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile by the exclusive method
// Python's statistics.quantiles(xs, n=4) uses, which is what the
// acceptance check computes spreads with. Fewer than two samples have no
// spread, so both read the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
