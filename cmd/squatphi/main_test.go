package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"squatphi/internal/obs/trace"
)

// TestPipelineSmoke runs the pipeline end to end on a small world with
// the event log and the trace store on (`make pipeline-smoke`): main must
// return (a fatal error exits the test binary non-zero), every event line
// must be slog JSON named by a lowercase.dotted msg, the stage and
// crawler events must be there, the store must load, and every flagged
// domain's record must carry its core.detect.flagged event.
func TestPipelineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole pipeline: scan, crawl, training and detection")
	}
	dir := t.TempDir()
	store := filepath.Join(dir, "trace.gz")
	events := filepath.Join(dir, "events.jsonl")
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"squatphi", "-domains", "1000", "-phish", "100", "-trace-out", store, "-events", events}
	main()

	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	eventName := regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)+$`)
	counts := map[string]int{}
	crawlerFailed := 0
	var flagged []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		line++
		var ev struct {
			Msg       string `json:"msg"`
			Component string `json:"component"`
			Domain    string `json:"domain"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %d %q: %v", line, sc.Text(), err)
		}
		if !eventName.MatchString(ev.Msg) {
			t.Fatalf("event line %d: msg %q is not lowercase.dotted", line, ev.Msg)
		}
		counts[ev.Msg]++
		switch ev.Msg {
		case "crawler.fetch.failed":
			if ev.Component == "crawler" {
				crawlerFailed++
			}
		case "core.detect.flagged":
			flagged = append(flagged, ev.Domain)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["core.stage.done"] == 0 || crawlerFailed == 0 || len(flagged) == 0 {
		t.Fatalf("event log lacks core.stage.done, a crawler-component crawler.fetch.failed or a core.detect.flagged: %v", counts)
	}

	st, err := trace.ReadStoreFile(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range flagged {
		rec, ok := st.Lookup(d)
		if !ok {
			t.Fatalf("flagged domain %s has no record in the store", d)
		}
		if !slices.ContainsFunc(rec.Events, func(ev trace.Event) bool {
			return ev.Name == "core.detect.flagged" && ev.Level == "info"
		}) {
			t.Errorf("record of flagged %s lacks its core.detect.flagged event: %+v", d, rec.Events)
		}
	}
	t.Logf("%d event lines %v, %d flagged", line, counts, len(flagged))
}
