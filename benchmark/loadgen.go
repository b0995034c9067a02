package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// openResult is what one open-loop phase yields. Slices are indexed by
// request; a request never sent has sent[i] == false.
type openResult struct {
	sent      []bool
	latencyUS []float64 // completion minus DUE time: a stall is charged to every request it delays
	lateUS    []float64 // send minus due time: how late the generator ran
	wall      time.Duration
}

// queued counts the requests still waiting when the phase ended.
func (r *openResult) queued() int {
	n := 0
	for _, s := range r.sent {
		if !s {
			n++
		}
	}
	return n
}

// runOpenLoop sends request i at start+due[i], whatever became of the
// requests before it, over conns sender goroutines that claim requests in
// order. due must be non-decreasing. A sender that finds the phase over
// (start+end passed) before it could send stops, and what it and the
// others left is the backlog. send performs request i on connection conn
// and returns when the reply is read.
func runOpenLoop(ctx context.Context, due []time.Duration, conns int, end time.Duration, send func(conn, i int)) *openResult {
	n := len(due)
	res := &openResult{sent: make([]bool, n), latencyUS: make([]float64, n), lateUS: make([]float64, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				dueAt := start.Add(due[i])
				sleepUntil(dueAt)
				sendAt := time.Now()
				if sendAt.Sub(start) > end {
					return
				}
				send(c, i)
				done := time.Now()
				res.sent[i] = true
				res.lateUS[i] = us(sendAt.Sub(dueAt))
				res.latencyUS[i] = us(done.Sub(dueAt))
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// closedWindow is the width of the windows a closed-loop phase counts
// completions in.
const closedWindow = 250 * time.Millisecond

// runClosedLoop has conns clients each send its next request as soon as
// the previous reply is read, for d. send performs the k-th request of
// connection conn. It returns the requests completed, the wall time, and
// the completions of each whole closedWindow of the phase — the median
// window is the sustained rate, whatever a collector cycle or a
// descheduled vCPU did to one or two of them.
func runClosedLoop(ctx context.Context, d time.Duration, conns int, send func(conn, k int)) (completed int64, wall time.Duration, windows []int64) {
	counts := make([]atomic.Int64, int(d/closedWindow)+1)
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := 0
			for ; ctx.Err() == nil && time.Since(start) < d; k++ {
				send(c, k)
				if w := int(time.Since(start) / closedWindow); w < len(counts) {
					counts[w].Add(1)
				}
			}
			total.Add(int64(k))
		}(c)
	}
	wg.Wait()
	wall = time.Since(start)
	for i := 0; i < int(d/closedWindow); i++ {
		windows = append(windows, counts[i].Load())
	}
	return total.Load(), wall, windows
}

// expGap turns a uniform draw into an exponential gap of a rate-per-second
// Poisson process, in seconds.
func expGap(u, rate float64) float64 { return -math.Log(1-u) / rate }

// poissonDue draws arrival times of a Poisson process of the given rate
// until d is reached: exponential gaps, so bursts and lulls occur as they
// would from independent clients.
func poissonDue(next func() float64, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += expGap(next(), rate)
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}
