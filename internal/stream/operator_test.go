package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"streamkm/internal/obs"
)

// rangeSource emits 0..n-1.
func rangeSource(n int) SourceFunc[int] {
	return func(ctx context.Context, emit Emit[int]) error {
		for i := 0; i < n; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestGroupRunsAndWaits(t *testing.T) {
	g, _ := NewGroup(context.Background())
	var ran atomic.Int32
	for i := 0; i < 5; i++ {
		g.Go("worker", func() error {
			ran.Add(1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 5 {
		t.Fatalf("ran %d goroutines", ran.Load())
	}
}

func TestGroupFirstErrorCancels(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	sentinel := errors.New("boom")
	g.Go("failer", func() error { return sentinel })
	g.Go("waiter", func() error {
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("group context not cancelled")
		}
	})
	if err := g.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("Wait = %v, want wrapped sentinel", err)
	}
}

func TestGroupPanicBecomesError(t *testing.T) {
	g, _ := NewGroup(context.Background())
	g.Go("panicky", func() error { panic("oh no") })
	err := g.Wait()
	if err == nil {
		t.Fatal("panic should surface as error")
	}
	if want := `operator "panicky" panicked`; !contains(err.Error(), want) {
		t.Fatalf("error %q does not mention panic source", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		})())
}

func TestSourceTransformSinkPipeline(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	reg := obs.NewRegistry()
	q1 := NewQueue[int]("src-out", 4)
	q2 := NewQueue[int]("xform-out", 4)

	RunSource(g, ctx, reg, "src", rangeSource(100), q1)
	double := func(_ context.Context, in int, emit Emit[int]) error { return emit(in * 2) }
	RunTransform(g, ctx, reg, "double", 1, double, q1, q2)
	sink, snapshot := Collect[int]()
	RunSink(g, ctx, reg, "collect", 1, sink, q2)

	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	got := snapshot()
	if len(got) != 100 {
		t.Fatalf("collected %d items", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("item %d = %d, want %d", i, v, 2*i)
		}
	}
}

func TestClonedTransformProcessesEverythingOnce(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	reg := obs.NewRegistry()
	q1 := NewQueue[int]("in", 8)
	q2 := NewQueue[int]("out", 8)
	RunSource(g, ctx, reg, "src", rangeSource(500), q1)
	ident := func(_ context.Context, in int, emit Emit[int]) error { return emit(in) }
	RunTransform(g, ctx, reg, "ident", 8, ident, q1, q2)
	sink, snapshot := Collect[int]()
	RunSink(g, ctx, reg, "collect", 1, sink, q2)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	got := snapshot()
	if len(got) != 500 {
		t.Fatalf("collected %d, want 500 (lost or duplicated under cloning)", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("item %d delivered twice", v)
		}
		seen[v] = true
	}
	st := stageView{reg, "ident"}
	if st.Clones() != 8 {
		t.Fatalf("Clones = %d", st.Clones())
	}
	if st.Processed() != 500 || st.Emitted() != 500 {
		t.Fatalf("stats in=%d out=%d", st.Processed(), st.Emitted())
	}
}

func TestTransformErrorStopsPlan(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	q1 := NewQueue[int]("in", 4)
	q2 := NewQueue[int]("out", 4)
	RunSource(g, ctx, nil, "src", rangeSource(1000), q1)
	boom := errors.New("bad item")
	fail := func(_ context.Context, in int, emit Emit[int]) error {
		if in == 7 {
			return boom
		}
		return emit(in)
	}
	RunTransform(g, ctx, nil, "fail", 2, fail, q1, q2)
	sink, _ := Collect[int]()
	RunSink(g, ctx, nil, "collect", 1, sink, q2)
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
}

func TestSinkErrorStopsPlan(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	q1 := NewQueue[int]("in", 4)
	RunSource(g, ctx, nil, "src", rangeSource(1000), q1)
	boom := errors.New("sink refuses")
	var count atomic.Int32
	sink := func(_ context.Context, in int) error {
		if count.Add(1) > 3 {
			return boom
		}
		return nil
	}
	RunSink(g, ctx, nil, "sink", 1, sink, q1)
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	q1 := NewQueue[int]("in", 4)
	boom := errors.New("scan failed")
	src := func(ctx context.Context, emit Emit[int]) error {
		if err := emit(1); err != nil {
			return err
		}
		return boom
	}
	RunSource(g, ctx, nil, "src", src, q1)
	sink, snapshot := Collect[int]()
	RunSink(g, ctx, nil, "sink", 1, sink, q1)
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	// Output queue was still closed; the emitted item may or may not have
	// been consumed before cancellation, but the plan must terminate.
	_ = snapshot()
}

func TestFanOutTransformEmitsMultiple(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	q1 := NewQueue[int]("in", 4)
	q2 := NewQueue[string]("out", 4)
	RunSource(g, ctx, nil, "src", rangeSource(10), q1)
	expand := func(_ context.Context, in int, emit Emit[string]) error {
		for j := 0; j < 3; j++ {
			if err := emit(fmt.Sprintf("%d/%d", in, j)); err != nil {
				return err
			}
		}
		return nil
	}
	RunTransform(g, ctx, nil, "expand", 2, expand, q1, q2)
	sink, snapshot := Collect[string]()
	RunSink(g, ctx, nil, "sink", 1, sink, q2)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(); len(got) != 30 {
		t.Fatalf("collected %d, want 30", len(got))
	}
}

// TestStagesRecordIntoRegistry: a source and a sink file their stream_*
// families under their names, and only a stage observes stage_seconds.
func TestStagesRecordIntoRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	g, ctx := NewGroup(context.Background())
	q1 := NewQueue[int]("in", 4)
	RunSource(g, ctx, reg, "src", rangeSource(5), q1)
	sink, _ := Collect[int]()
	RunSink(g, ctx, reg, "sink", 3, sink, q1)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	src, snk := stageView{reg, "src"}, stageView{reg, "sink"}
	if src.Emitted() != 5 || src.Processed() != 0 || src.Clones() != 1 {
		t.Fatalf("src: out=%d in=%d clones=%d", src.Emitted(), src.Processed(), src.Clones())
	}
	if snk.Processed() != 5 || snk.Emitted() != 0 || snk.Clones() != 3 {
		t.Fatalf("sink: in=%d out=%d clones=%d", snk.Processed(), snk.Emitted(), snk.Clones())
	}
	snap := reg.Snapshot()
	if h := snap.Histogram(obs.StageSeconds, "sink"); h == nil || h.Count != 5 {
		t.Fatalf("sink stage_seconds = %+v, want count 5", h)
	}
	if h := snap.Histogram(obs.StageSeconds, "src"); h != nil {
		t.Fatalf("source observed stage_seconds: %+v", h)
	}
	if n := len(snap.Counters); n != 12 {
		t.Fatalf("registry holds %d counters, want 6 per stage", n)
	}
}

func TestNilRegistryAllowed(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	q1 := NewQueue[int]("in", 4)
	RunSource(g, ctx, nil, "src", rangeSource(5), q1)
	sink, snapshot := Collect[int]()
	RunSink(g, ctx, nil, "sink", 0, sink, q1) // clones<1 coerced to 1
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(snapshot()) != 5 {
		t.Fatal("nil registry pipeline failed")
	}
}

func TestPipelinedExecutionOverlaps(t *testing.T) {
	// The consumer must start before the producer finishes: with a queue
	// capacity of 1 and 10 items, a non-pipelined implementation would
	// deadlock.
	g, ctx := NewGroup(context.Background())
	q := NewQueue[int]("tiny", 1)
	RunSource(g, ctx, nil, "src", rangeSource(10), q)
	sink, snapshot := Collect[int]()
	RunSink(g, ctx, nil, "sink", 1, sink, q)
	done := make(chan error, 1)
	go func() { done <- g.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline deadlocked with tiny queue")
	}
	if len(snapshot()) != 10 {
		t.Fatal("lost items")
	}
}
