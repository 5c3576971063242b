package stream

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"streamkm/internal/obs"
)

func TestDynamicTransformBasic(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	reg := obs.NewRegistry()
	in := NewQueue[int]("in", 8)
	out := NewQueue[int]("out", 8)
	RunSource(g, ctx, reg, "src", rangeSource(100), in)
	dt := RunStage(g, ctx, reg, StageConfig[int]{Name: "dyn", Clones: 2},
		func(_ context.Context, x int, emit Emit[int]) error { return emit(x * 2) }, in, out)
	sink, snap := Collect[int]()
	RunSink(g, ctx, reg, "sink", 1, sink, out)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	got := snap()
	if len(got) != 100 {
		t.Fatalf("delivered %d items", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("item %d = %d", i, v)
		}
	}
	if got := (stageView{reg, "dyn"}).Processed(); got != 100 {
		t.Fatalf("processed = %d", got)
	}
	if dt.Clones() != 2 {
		t.Fatalf("clones = %d", dt.Clones())
	}
}

func TestDynamicTransformInitialFloor(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	in := NewQueue[int]("in", 4)
	out := NewQueue[int]("out", 4)
	RunSource(g, ctx, nil, "src", rangeSource(5), in)
	dt := RunStage(g, ctx, nil, StageConfig[int]{Name: "dyn", Clones: 0},
		func(_ context.Context, x int, emit Emit[int]) error { return emit(x) }, in, out)
	sink, _ := Collect[int]()
	RunSink(g, ctx, nil, "sink", 1, sink, out)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if dt.Clones() != 1 {
		t.Fatalf("initial<1 should coerce to 1, got %d", dt.Clones())
	}
}

func TestDynamicTransformScalesUpMidRun(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	reg := obs.NewRegistry()
	in := NewQueue[int]("in", 4)
	out := NewQueue[int]("out", 200)
	release := make(chan struct{})
	var processed atomic.Int32
	// Slow stage: the first items block until released, so the queue
	// backs up and the added clone is observably useful.
	fn := func(_ context.Context, x int, emit Emit[int]) error {
		processed.Add(1)
		<-release
		return emit(x)
	}
	RunSource(g, ctx, reg, "src", rangeSource(50), in)
	dt := RunStage(g, ctx, reg, StageConfig[int]{Name: "dyn", Clones: 1}, fn, in, out)
	sink, snap := Collect[int]()
	RunSink(g, ctx, nil, "sink", 1, sink, out)

	// Wait for the single clone to block on the first item.
	deadline := time.After(2 * time.Second)
	for processed.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("first item never reached the stage")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 3; i++ {
		if !dt.AddClone() {
			t.Fatal("AddClone refused while input open")
		}
	}
	if dt.Clones() != 4 {
		t.Fatalf("clones = %d, want 4", dt.Clones())
	}
	close(release)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := snap(); len(got) != 50 {
		t.Fatalf("delivered %d items", len(got))
	}
	if got := (stageView{reg, "dyn"}).Clones(); got != 4 {
		t.Fatalf("stream_clones = %d", got)
	}
}

func TestDynamicTransformAddCloneAfterDrain(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	in := NewQueue[int]("in", 4)
	out := NewQueue[int]("out", 4)
	RunSource(g, ctx, nil, "src", rangeSource(3), in)
	dt := RunStage(g, ctx, nil, StageConfig[int]{Name: "dyn", Clones: 1},
		func(_ context.Context, x int, emit Emit[int]) error { return emit(x) }, in, out)
	sink, _ := Collect[int]()
	RunSink(g, ctx, nil, "sink", 1, sink, out)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if dt.AddClone() {
		t.Fatal("AddClone after drain should report false")
	}
}

func TestDynamicTransformErrorPropagates(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	in := NewQueue[int]("in", 4)
	out := NewQueue[int]("out", 4)
	boom := errors.New("bad item")
	RunSource(g, ctx, nil, "src", rangeSource(100), in)
	RunStage(g, ctx, nil, StageConfig[int]{Name: "dyn", Clones: 3},
		func(_ context.Context, x int, emit Emit[int]) error {
			if x == 5 {
				return boom
			}
			return emit(x)
		}, in, out)
	sink, _ := Collect[int]()
	RunSink(g, ctx, nil, "sink", 1, sink, out)
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v", err)
	}
}
