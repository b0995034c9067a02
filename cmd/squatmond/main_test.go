package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMonitorSmoke runs the monitor end to end for three rounds into a
// temporary report (`make monitor-smoke`): main must return (a fatal
// error exits the test binary non-zero), every report line must decode
// as an Alert, and the flushed metrics snapshot must count the rounds and
// the alerts and carry the runtime samples. Three rounds, because this world's first alerts arrive in
// round 3: with fewer the decode check would have nothing to check.
func TestMonitorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstraps a classifier and runs three monitor rounds")
	}
	report := filepath.Join(t.TempDir(), "alerts.jsonl")
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"squatmond", "-rounds", "3", "-new", "400", "-report", report}
	main()

	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	alerts := 0
	for sc.Scan() {
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var a Alert
		if err := dec.Decode(&a); err != nil {
			t.Fatalf("report line %d %q: %v", alerts+1, sc.Text(), err)
		}
		if a.Round < 1 || a.Round > 3 || a.Domain == "" || (a.Profile != "web" && a.Profile != "mobile") {
			t.Fatalf("report line %d: implausible alert %+v", alerts+1, a)
		}
		alerts++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if alerts == 0 {
		t.Fatal("three rounds raised no alert")
	}

	raw, err := os.ReadFile(report + ".metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Gauges["runtime.goroutines"]; !ok {
		t.Fatalf("flushed snapshot has no runtime sample: gauges %v", snap.Gauges)
	}
	if got := snap.Counters["squatmond.rounds"]; got != 3 {
		t.Fatalf("squatmond.rounds = %d, want 3", got)
	}
	if got := snap.Counters["squatmond.alerts"]; got != int64(alerts) {
		t.Fatalf("squatmond.alerts = %d, report has %d lines", got, alerts)
	}
	t.Logf("%d alerts over 3 rounds", alerts)
}
