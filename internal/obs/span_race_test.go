package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestSpanImmutableAfterEnd pins the audit outcome: SetAttr and Fail on
// an ended span are dropped, so a snapshot taken at End time and one
// taken later can never disagree.
func TestSpanImmutableAfterEnd(t *testing.T) {
	_, s := StartSpan(context.Background(), "stage")
	s.SetAttr("before", "kept")
	s.End()
	s.SetAttr("after", "dropped")
	s.Fail(fmt.Errorf("late failure"))

	snap := s.Snapshot()
	if snap.Attrs["before"] != "kept" {
		t.Error("attr set before End was lost")
	}
	if _, ok := snap.Attrs["after"]; ok {
		t.Error("attr set after End was recorded")
	}
	if snap.Err != "" {
		t.Errorf("Fail after End was recorded: %q", snap.Err)
	}
}

// TestSpanConcurrentChildRecording is the -race regression test for the
// worker-goroutine span pattern used by the pipeline: many goroutines
// attach child spans, annotate and end them while the root is being
// snapshotted concurrently and ends mid-flight.
func TestSpanConcurrentChildRecording(t *testing.T) {
	rec := NewRecorder(4)
	ctx := WithRecorder(context.Background(), rec)
	rctx, root := StartSpan(ctx, "scan")

	const workers = 16
	const spansPerWorker = 25
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < spansPerWorker; i++ {
				_, child := StartSpan(rctx, fmt.Sprintf("shard.%d.%d", w, i))
				child.SetAttr("worker", fmt.Sprint(w))
				if i%5 == 0 {
					child.Fail(fmt.Errorf("shard %d fault", i))
				}
				child.EndWith(nil)
			}
		}(w)
	}
	// Snapshot readers race with the writers, and the root ends while
	// children are still being attached.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		<-start
		for i := 0; i < 100; i++ {
			_ = root.Snapshot()
			_ = rec.Traces()
		}
	}()
	close(start)
	root.End()
	wg.Wait()
	<-readerDone

	snap := root.Snapshot()
	if got := len(snap.Children); got != workers*spansPerWorker {
		t.Fatalf("root has %d children, want %d", got, workers*spansPerWorker)
	}
	if got := len(rec.Traces()); got != 1 {
		t.Fatalf("recorder holds %d roots, want 1", got)
	}
}
