package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []*span{
		{ID: 1, Name: "bench.measure", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.ScanSnapshot", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "core.ScanSnapshot", Start: 30, End: 60}, // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: "squat.MatchBytes", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Name: "snapfmt.Visit", Start: 12, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (50 + 10), // children cover [10,60) and [90,100)
		2: 30 - 8,
		3: 30,
		4: 30,
		5: 8,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerNilAndOff(t *testing.T) {
	var none *tracer
	sp := none.start(nil, "squat.MatchBytes")
	sp.end() // a nil span must be a no-op
	none.setOff(true)
	if none.layerSelfMS() != nil {
		t.Error("nil tracer reported layers")
	}

	tr := newTracer("scan-zone")
	tr.setOff(true)
	if tr.start(nil, "core.ScanSnapshot") != nil {
		t.Error("a paused tracer recorded a span")
	}
	tr.setOff(false)
	root := tr.start(nil, "bench.measure")
	child := tr.start(root, "core.ScanSnapshot")
	child.end()
	root.end()
	if child.Parent != root.ID || child.Workload != "scan-zone" {
		t.Errorf("child = %+v, want parent %d and workload scan-zone", child, root.ID)
	}
	layers := tr.layerSelfMS()
	if _, ok := layers["core"]; !ok {
		t.Errorf("layers = %v, want a core entry", layers)
	}

	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Errorf("span file has %d lines, want 2", n)
	}
	for _, key := range []string{`"name"`, `"start_ns"`, `"end_ns"`, `"parent"`, `"workload"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("span file lacks %s", key)
		}
	}
}
