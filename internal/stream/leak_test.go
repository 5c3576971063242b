package stream

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"streamkm/internal/govern"
)

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (scheduler cleanup is asynchronous).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPlanLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		g, ctx := NewGroup(context.Background())
		q1 := NewQueue[int]("a", 4)
		q2 := NewQueue[int]("b", 4)
		RunSource(g, ctx, nil, "src", rangeSource(200), q1)
		RunTransform(g, ctx, nil, "id", 4, func(_ context.Context, x int, emit Emit[int]) error { return emit(x) }, q1, q2)
		sink, _ := Collect[int]()
		RunSink(g, ctx, nil, "sink", 2, sink, q2)
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	waitForGoroutines(t, baseline)
}

// TestWatchdogCancelMidPutLeavesNoGoroutines wedges a heartbeat-wired
// stage on a blocked Put (full output queue, no consumer) and lets a
// stall watchdog — wired exactly the way the engine wires it — cancel
// the attempt. Every replica, the source, and the watchdog goroutine
// itself must unwind.
func TestWatchdogCancelMidPutLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		attemptCtx, cancelAttempt := context.WithCancelCause(context.Background())
		g, gctx := NewGroup(attemptCtx)
		in := NewQueue[int]("in", 1)
		out := NewQueue[int]("out", 1)
		RunSource(g, gctx, nil, "src", endlessSource(), in)
		hb := new(govern.Heartbeat)
		RunStage(g, gctx, nil, StageConfig[int]{Name: "xform", Beat: hb},
			func(_ context.Context, x int, emit Emit[int]) error { return emit(x) }, in, out)
		// Nobody drains out: the replica begins an item and wedges inside
		// Put, so the probe sees in-flight work with a flat beat count.
		wd := govern.NewWatchdog(30*time.Millisecond, govern.Probe{
			Name:     "xform",
			Progress: func() int64 { return hb.Beats() + in.Dequeued() },
			Pending:  func() int64 { return hb.InFlight() + int64(in.Len()) },
		})
		wdStop, wdDone := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(wdDone)
			wd.Watch(wdStop, func(err error) { cancelAttempt(err) })
		}()
		err := g.Wait()
		close(wdStop)
		<-wdDone
		cancelAttempt(nil)
		if err == nil {
			t.Fatal("wedged plan finished cleanly; the watchdog never fired")
		}
		if cause := context.Cause(attemptCtx); !errors.Is(cause, govern.ErrStalled) {
			t.Fatalf("cancellation cause = %v, want govern.ErrStalled", cause)
		}
	}
	waitForGoroutines(t, baseline)
}

func TestCancelledPlanLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		g, gctx := NewGroup(ctx)
		q1 := NewQueue[int]("a", 1)
		q2 := NewQueue[int]("b", 1)
		RunSource(g, gctx, nil, "src", endlessSource(), q1)
		dt := RunStage(g, gctx, nil, StageConfig[int]{Name: "dyn", Clones: 2},
			func(_ context.Context, x int, emit Emit[int]) error { return emit(x) }, q1, q2)
		dt.AddClone()
		// no consumer: the plan wedges, then gets cancelled
		time.Sleep(5 * time.Millisecond)
		cancel()
		_ = g.Wait()
	}
	waitForGoroutines(t, baseline)
}
