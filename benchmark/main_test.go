package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestRunRefusesBadArguments(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "no-such-workload"}, "unknown workload"},
		{[]string{"-trace", "2"}, "-trace 0 or 1"},
		{[]string{"-seconds", "0"}, "-seconds must be positive"},
		{[]string{"-compare", "only-one.jsonl"}, "two result files"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q lacks %q", c.args, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result: %q", c.args, stdout.String())
		}
	}
}

// The driver passes --name value pairs, trace as 0 or 1.
func TestDriverFlagSpelling(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "no-such-workload", "--seed", "7", "--seconds", "10", "--trace", "1"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("exit %d, stderr %q: the flags did not parse as the driver spells them", code, stderr.String())
	}
}

// A GOMAXPROCS above the CPU count would oversubscribe every worker pool.
func TestRunRefusesOversubscription(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "scan-zone"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "oversubscribed") || stdout.Len() != 0 {
		t.Errorf("stderr %q, stdout %q: want a refusal and no result", stderr.String(), stdout.String())
	}
}

func TestResultLine(t *testing.T) {
	rec := &runRecord{Correct: true, Attempted: 26, Metrics: map[string]metricValue{
		"setup_s": {Value: 1.25, Unit: "s", Samples: 3, Q1: 1, Q3: 2, Note: "x"},
	}}
	var out bytes.Buffer
	printResultLine(&out, rec)
	want := `{"correct":true,"attempted":26,"failed":0,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}` + "\n"
	if out.String() != want {
		t.Errorf("result line = %q, want %q", out.String(), want)
	}
}
