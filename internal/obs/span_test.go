package obs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	rec := NewRecorder(8)
	ctx := WithRecorder(context.Background(), rec)

	ctx, root := StartSpan(ctx, "round")
	for _, name := range []string{"probe", "match", "crawl"} {
		childCtx, child := StartSpan(ctx, name)
		_, grand := StartSpan(childCtx, name+".inner")
		grand.End()
		child.End()
	}
	root.SetAttr("candidates", "7")
	root.EndWith(nil)

	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Name != "round" || tr.InProgress {
		t.Errorf("root = %q in_progress=%v, want round/false", tr.Name, tr.InProgress)
	}
	if tr.Attrs["candidates"] != "7" {
		t.Errorf("attrs = %v", tr.Attrs)
	}
	if len(tr.Children) != 3 {
		t.Fatalf("root has %d children, want 3", len(tr.Children))
	}
	for i, want := range []string{"probe", "match", "crawl"} {
		c := tr.Children[i]
		if c.Name != want {
			t.Errorf("child[%d] = %q, want %q (ordering)", i, c.Name, want)
		}
		if len(c.Children) != 1 || c.Children[0].Name != want+".inner" {
			t.Errorf("child[%d] grandchildren = %+v", i, c.Children)
		}
	}
}

func TestSpanError(t *testing.T) {
	rec := NewRecorder(2)
	ctx := WithRecorder(context.Background(), rec)
	_, sp := StartSpan(ctx, "crawl")
	sp.EndWith(errors.New("boom"))
	sp.EndWith(errors.New("second end ignored"))
	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1 (End must be idempotent)", len(traces))
	}
	if traces[0].Err != "boom" {
		t.Errorf("err = %q, want boom", traces[0].Err)
	}
}

func TestRecorderRingWraps(t *testing.T) {
	rec := NewRecorder(4)
	ctx := WithRecorder(context.Background(), rec)
	for i := 0; i < 7; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("run-%d", i))
		sp.End()
	}
	traces := rec.Traces()
	if len(traces) != 4 {
		t.Fatalf("retained %d traces, want 4", len(traces))
	}
	// Newest first: run-6, run-5, run-4, run-3.
	for i, want := range []string{"run-6", "run-5", "run-4", "run-3"} {
		if traces[i].Name != want {
			t.Errorf("traces[%d] = %q, want %q", i, traces[i].Name, want)
		}
	}
}

func TestDetachedSpanSafe(t *testing.T) {
	// No recorder, no parent: spans still work and record nothing.
	ctx, sp := StartSpan(context.Background(), "detached")
	_, child := StartSpan(ctx, "child")
	child.End()
	sp.End()
	if sp.Snapshot().DurationMS <= 0 {
		t.Error("detached span has no duration")
	}
	var nilSpan *Span
	nilSpan.SetAttr("k", "v")
	nilSpan.Fail(errors.New("x"))
	nilSpan.End()
}

func TestConcurrentChildren(t *testing.T) {
	rec := NewRecorder(2)
	ctx := WithRecorder(context.Background(), rec)
	ctx, root := StartSpan(ctx, "parallel")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := StartSpan(ctx, fmt.Sprintf("worker-%d", i))
			sp.SetAttr("i", fmt.Sprint(i))
			sp.End()
			_ = root.Snapshot() // snapshot while siblings mutate
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(rec.Traces()[0].Children); got != 16 {
		t.Errorf("children = %d, want 16", got)
	}
}
