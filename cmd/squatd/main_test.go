package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"squatphi/internal/deltascan"
)

// TestServeSmoke runs the daemon end to end in -smoke mode (`make
// serve-smoke`): boot scan, warm, one self-lookup and the health check
// over its own listener, then the shutdown path a signal takes (drain →
// spill → metrics flush). main must return (a failed step ends in
// log.Fatal, which exits the test binary non-zero), the spill must load,
// and the flushed metrics must count the self-lookup and carry the
// runtime samples.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	spill := filepath.Join(dir, "squatd.spill")
	metrics := filepath.Join(dir, "metrics.json")
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"squatd", "-gen", "20000", "-addr", "127.0.0.1:0",
		"-state", spill, "-metrics", metrics, "-smoke", "paypal.com", "facebook.com"}
	main()

	engine, err := deltascan.LoadFile(spill)
	if err != nil {
		t.Fatalf("spill does not load: %v", err)
	}
	raw, err := os.ReadFile(metrics)
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
	if got := snap.Counters["serve.lookups"]; got < 1 {
		t.Fatalf("serve.lookups = %d, want >= 1 (the self-lookup)", got)
	}
	t.Logf("spill at epoch %d, %d lookups", engine.Epoch(), snap.Counters["serve.lookups"])
}
