package stream

import (
	"context"
	"errors"
	"testing"
	"time"
)

// endlessSource emits increasing integers until cancelled.
func endlessSource() SourceFunc[int] {
	return func(ctx context.Context, emit Emit[int]) error {
		for i := 0; ; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
	}
}

// blockedSinkPlan builds a plan whose sink never consumes, so everything
// upstream eventually blocks on a full queue; cancelling the context
// must unwind it all.
func TestCancellationUnwindsBlockedPlan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g, gctx := NewGroup(ctx)
	q1 := NewQueue[int]("q1", 2)
	q2 := NewQueue[int]("q2", 2)
	RunSource(g, gctx, nil, "src", endlessSource(), q1)
	RunTransform(g, gctx, nil, "id", 2, func(_ context.Context, x int, emit Emit[int]) error { return emit(x) }, q1, q2)
	stuck := make(chan struct{})
	RunSink(g, gctx, nil, "stuck-sink", 1, func(ctx context.Context, _ int) error {
		select {
		case <-stuck: // never closed
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}, q2)

	time.Sleep(30 * time.Millisecond) // let everything back up
	cancel()
	done := make(chan error, 1)
	go func() { done <- g.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unwind the blocked plan")
	}
}

func TestDynamicTransformCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g, gctx := NewGroup(ctx)
	in := NewQueue[int]("in", 2)
	out := NewQueue[int]("out", 1)
	RunSource(g, gctx, nil, "src", endlessSource(), in)
	RunStage(g, gctx, nil, StageConfig[int]{Name: "dyn", Clones: 2},
		func(_ context.Context, x int, emit Emit[int]) error { return emit(x) }, in, out)
	// no consumer of out
	time.Sleep(20 * time.Millisecond)
	cancel()
	done := make(chan error, 1)
	go func() { done <- g.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dynamic transform did not unwind on cancellation")
	}
}
