package obs

import (
	"math"
	"runtime/metrics"
)

// readRuntime adds the process's health to a snapshot's gauges with one
// runtime/metrics.Read: live heap, goroutines, p50/p99 of the GC's
// stop-the-world pauses and of how long runnable goroutines waited to run,
// and the share of CPU time the GC took since start. A sample the running
// Go version does not know reads as KindBad and is left out.
func readRuntime(g map[string]float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/latencies:seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	for i, names := range [...][2]string{
		{"runtime.heap_live_bytes"},
		{"runtime.goroutines"},
		{"runtime.gc_pause_p50_s", "runtime.gc_pause_p99_s"},
		{"runtime.sched_latency_p50_s", "runtime.sched_latency_p99_s"},
	} {
		switch v := s[i].Value; v.Kind() {
		case metrics.KindUint64:
			g[names[0]] = float64(v.Uint64())
		case metrics.KindFloat64Histogram:
			h := v.Float64Histogram()
			g[names[0]], g[names[1]] = runtimeQuantile(h, 0.50), runtimeQuantile(h, 0.99)
		}
	}
	if gc, total := s[4].Value, s[5].Value; gc.Kind() == metrics.KindFloat64 && total.Kind() == metrics.KindFloat64 {
		// Both are brought up to date at each GC; before the first, both are 0.
		g["runtime.gc_cpu_fraction"] = 0
		if total.Float64() > 0 {
			g["runtime.gc_cpu_fraction"] = gc.Float64() / total.Float64()
		}
	}
}

// runtimeQuantile returns the upper bound of the bucket holding the q-th
// quantile of h (its lower bound when the upper is +Inf), or 0 when h is
// empty: a finite number, as JSON requires.
func runtimeQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank, cum := uint64(math.Ceil(q*float64(total))), uint64(0)
	for i, c := range h.Counts {
		if cum += c; cum >= rank {
			for _, b := range [2]float64{h.Buckets[i+1], h.Buckets[i]} {
				if !math.IsInf(b, 0) {
					return b
				}
			}
			break
		}
	}
	return 0
}
