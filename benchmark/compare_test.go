package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"5% slower is inside a 10% bound", lower, steady, scale(steady, 1.05), "ok"},
		{"15% slower", lower, steady, scale(steady, 1.15), "regression"},
		{"15% faster", lower, steady, scale(steady, 0.85), "ok"},
		{"throughput 15% lower", higher, steady, scale(steady, 0.85), "regression"},
		{"throughput 15% higher", higher, steady, scale(steady, 1.15), "ok"},
		{"spread wider than the bound", lower, []float64{60, 80, 100, 120, 140, 90, 110, 70, 130, 100}, steady, "unresolved"},
	} {
		if _, _, _, got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func recordSet(workload string, f float64) []runRecord {
	var out []runRecord
	for seed := uint64(1); seed <= 10; seed++ {
		jitter := 1 + float64(seed%3)*0.005
		rec := runRecord{
			Workload: workload, Seed: seed, Seconds: 10, InputSHA256: "abc", Correct: true, Attempted: 10,
			Metrics: map[string]metricValue{},
			Counts:  map[string]int64{"candidates": 42},
			Tallies: map[string]int64{"cycles": int64(seed)},
		}
		for _, m := range endToEnd {
			rec.Metrics[m.Name] = metricValue{Value: 100 * jitter * f, Unit: m.Unit}
		}
		out = append(out, rec)
	}
	return out
}

func TestCompareSets(t *testing.T) {
	var out bytes.Buffer
	if code := compareSets(recordSet("scan-zone", 1), recordSet("scan-zone", 1.02), &out); code != 0 {
		t.Errorf("sets 2%% apart: exit %d\n%s", code, out.String())
	}
	for _, m := range endToEnd {
		if !strings.Contains(out.String(), m.Name) {
			t.Errorf("report lacks %s", m.Name)
		}
	}

	// Every "lower is better" metric 30% up is a regression on each.
	out.Reset()
	if code := compareSets(recordSet("scan-zone", 1), recordSet("scan-zone", 1.3), &out); code != 1 || !strings.Contains(out.String(), "regression") {
		t.Errorf("sets 30%% apart: exit %d\n%s", code, out.String())
	}

	out.Reset()
	failed := recordSet("scan-zone", 1)
	failed[3].Failed, failed[3].Correct = 2, false
	if code := compareSets(recordSet("scan-zone", 1), failed, &out); code != 1 || !strings.Contains(out.String(), "operations failed") {
		t.Errorf("a failed operation passed: exit %d\n%s", code, out.String())
	}

	out.Reset()
	drift := recordSet("scan-zone", 1)
	drift[0].Counts["candidates"] = 43
	drift[1].Tallies["cycles"] = 99 // time-bound: allowed to differ
	drift[2].InputSHA256 = "def"
	code := compareSets(recordSet("scan-zone", 1), drift, &out)
	if code != 1 || !strings.Contains(out.String(), "count candidates differs") || !strings.Contains(out.String(), "input digest differs") {
		t.Errorf("drifting exact count or digest passed: exit %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "cycles") {
		t.Errorf("a tally was held to exactness:\n%s", out.String())
	}
}
