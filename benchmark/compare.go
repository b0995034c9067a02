package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles is the noise acceptance check: two -out files, each a set
// of untraced runs of the same commit over the same seeds. For every
// (workload, metric) it prints the two medians, their relative
// difference (positive = b worse), the metric's bound and a verdict:
//
//	ok          b's median is no worse than a's by more than the bound
//	regression  it is
//	unresolved  the run-to-run spread of either set is wider than the
//	            bound, so the medians cannot settle the question
//
// It also demands error_rate 0 everywhere and, for runs that share a
// workload and seed, identical inputs and exact counts. The exit code is
// 1 on any regression, unresolved metric, failure or mismatch.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2][]runRecord
	for i, path := range []string{pathA, pathB} {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		sets[i] = recs
	}
	return compareSets(sets[0], sets[1], stdout)
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return out, nil
}

// verdict applies the rule above to one metric's values in the two sets.
func verdict(spec metricSpec, a, b []float64) (medA, medB, rel float64, status string) {
	medA, medB = median(a), median(b)
	if medA != 0 {
		rel = (medB - medA) / math.Abs(medA)
		if spec.Better == "higher" {
			rel = -rel
		}
	}
	switch {
	case rel > spec.Bound:
		status = "regression"
	case driverSpread(a) > spec.Bound || driverSpread(b) > spec.Bound:
		status = "unresolved"
	default:
		status = "ok"
	}
	return medA, medB, rel, status
}

// driverSpread is the interquartile distance as a share of the median, as
// the driver computes it.
func driverSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

func compareSets(a, b []runRecord, w io.Writer) int {
	type key struct{ workload, metric string }
	collect := func(recs []runRecord) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range recs {
			for name, mv := range r.Metrics {
				out[key{r.Workload, name}] = append(out[key{r.Workload, name}], mv.Value)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	bad := 0

	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "verdict")
	for _, ws := range workloads {
		for _, spec := range endToEnd {
			k := key{ws.Name, spec.Name}
			if len(va[k]) == 0 && len(vb[k]) == 0 {
				continue
			}
			if len(va[k]) == 0 || len(vb[k]) == 0 {
				fmt.Fprintf(w, "%-14s %-20s present in only one file\n", k.workload, k.metric)
				bad++
				continue
			}
			// setup_s is held to its bound on the medians only; its own
			// spread is exempt, as in the driver's check.
			medA, medB, rel, status := verdict(spec, va[k], vb[k])
			if spec.Name == "setup_s" && status == "unresolved" {
				status = "ok"
			}
			if status != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%  %s (n=%d/%d, spread %.1f%%/%.1f%%)\n",
				k.workload, k.metric, medA, medB, rel*100, spec.Bound*100, status,
				len(va[k]), len(vb[k]), driverSpread(va[k])*100, driverSpread(vb[k])*100)
		}
	}

	// error_rate is held at 0: any rise is a regression.
	for _, recs := range [][]runRecord{a, b} {
		for _, r := range recs {
			if !r.Correct || r.Failed != 0 {
				fmt.Fprintf(w, "%-14s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				bad++
			}
		}
	}

	// Same workload, same seed, same run length: the inputs and every
	// exact count must repeat bit for bit.
	type runKey struct {
		workload string
		seed     uint64
		seconds  float64
		trace    bool
	}
	first := map[runKey]runRecord{}
	for _, recs := range [][]runRecord{a, b} {
		for _, r := range recs {
			k := runKey{r.Workload, r.Seed, r.Seconds, r.Trace}
			prev, seen := first[k]
			if !seen {
				first[k] = r
				continue
			}
			if prev.InputSHA256 != r.InputSHA256 {
				fmt.Fprintf(w, "%-14s seed %d: input digest differs between runs (%s vs %s)\n", r.Workload, r.Seed, prev.InputSHA256, r.InputSHA256)
				bad++
			}
			for name, v := range r.Counts {
				if prev.Counts[name] != v {
					fmt.Fprintf(w, "%-14s seed %d: count %s differs between runs (%d vs %d)\n", r.Workload, r.Seed, name, prev.Counts[name], v)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d disagreement(s)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "the two sets agree")
	return 0
}
