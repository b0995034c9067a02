package retry

import (
	"context"
	"testing"
	"time"

	"squatphi/internal/obs"
)

func TestResolveConvention(t *testing.T) {
	if Resolve(-1, 2) != 0 {
		t.Error("negative must disable retries")
	}
	if Resolve(0, 2) != 2 {
		t.Error("zero must select the default")
	}
	if Resolve(5, 2) != 5 {
		t.Error("positive must be used as given")
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	pol := Policy{BaseDelay: time.Second}
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := pol.Backoff("host.test/", attempt)
		d2 := Policy{BaseDelay: time.Second}.Backoff("host.test/", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v != %v", attempt, d1, d2)
		}
		if d1 > maxDelay {
			t.Fatalf("attempt %d: backoff %v exceeds cap", attempt, d1)
		}
		if d1 < 500*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v below base/2 jitter floor", attempt, d1)
		}
	}
	// Different keys draw different jitter.
	if pol.Backoff("x", 1) == pol.Backoff("y", 1) && pol.Backoff("x", 2) == pol.Backoff("y", 2) {
		t.Error("jitter does not vary by key")
	}
}

// TestBackoffSchedulePinned pins the default schedule every binary runs
// (100ms doubling to the 5s cap, jitter seed 0) to the delays the
// configurable policy produced before its cap and seed became constants.
func TestBackoffSchedulePinned(t *testing.T) {
	want := map[int]time.Duration{
		1: 73903856, 2: 155518363, 3: 252398006, 6: 2067639451, 7: 2844274516, 12: 2803145802,
	}
	for attempt, d := range want {
		if got := (Policy{}).Backoff("host.test/", attempt); got != d {
			t.Errorf("attempt %d: backoff %v, want %v", attempt, got, d)
		}
	}
}

func TestBackoffDisabled(t *testing.T) {
	if d := (Policy{BaseDelay: -1}).Backoff("k", 3); d != 0 {
		t.Fatalf("negative BaseDelay must disable backoff, got %v", d)
	}
}

func TestWaitHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := obs.NewRegistry().Histogram("t.retry.backoff_ms", obs.MillisBuckets)
	if err := (Policy{BaseDelay: time.Hour}).Wait(ctx, "k", 1, h); err == nil {
		t.Fatal("cancelled Wait returned nil")
	}
	if n := h.Snapshot().Count; n != 1 {
		t.Fatalf("backoff histogram count = %d, want 1", n)
	}
}
