package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func runSupervisedInts(t *testing.T, sup *Supervisor[int], clones int, fn TransformFunc[int, int], inputs []int) ([]int, *OpStats, error) {
	t.Helper()
	g, ctx := NewGroup(context.Background())
	reg := NewStatsRegistry()
	in := NewQueue[int]("in", 8)
	out := NewQueue[int]("out", 8)
	RunSource(g, ctx, reg, "src", func(_ context.Context, emit Emit[int]) error {
		for _, v := range inputs {
			if err := emit(v); err != nil {
				return err
			}
		}
		return nil
	}, in)
	stats := RunStage(g, ctx, reg, StageConfig[int]{Name: "work", Clones: clones, Sup: sup}, fn, in, out).Stats()
	sink, snapshot := Collect[int]()
	RunSink(g, ctx, reg, "sink", 1, sink, out)
	err := g.Wait()
	return snapshot(), stats, err
}

func TestSupervisedRetriesTransientFailure(t *testing.T) {
	var failures atomic.Int64
	fn := func(_ context.Context, v int, emit Emit[int]) error {
		// Item 3 fails twice before succeeding.
		if v == 3 && failures.Add(1) <= 2 {
			return errors.New("transient")
		}
		return emit(v * 10)
	}
	sup := &Supervisor[int]{Retry: RetryPolicy{MaxRetries: 3, BaseBackoff: time.Microsecond}}
	got, stats, err := runSupervisedInts(t, sup, 1, fn, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got)
	want := []int{10, 20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if stats.Retries() != 2 {
		t.Fatalf("Retries() = %d, want 2", stats.Retries())
	}
	if stats.Quarantined() != 0 || stats.Dropped() != 0 {
		t.Fatalf("unexpected quarantine: %s", stats)
	}
}

func TestSupervisedRecoversPanicsIntoTypedErrors(t *testing.T) {
	var calls atomic.Int64
	fn := func(_ context.Context, v int, emit Emit[int]) error {
		if v == 2 && calls.Add(1) == 1 {
			panic("kaboom")
		}
		return emit(v)
	}
	sup := &Supervisor[int]{Retry: RetryPolicy{MaxRetries: 1, BaseBackoff: time.Microsecond}}
	got, stats, err := runSupervisedInts(t, sup, 1, fn, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if stats.Retries() != 1 {
		t.Fatalf("Retries() = %d", stats.Retries())
	}
}

func TestSupervisedPanicWithoutRetryFailsTyped(t *testing.T) {
	fn := func(_ context.Context, v int, _ Emit[int]) error {
		panic(fmt.Sprintf("poison %d", v))
	}
	sup := &Supervisor[int]{} // no retries, no DLQ
	_, _, err := runSupervisedInts(t, sup, 1, fn, []int{7})
	if err == nil {
		t.Fatal("expected failure")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a PanicError", err)
	}
	if pe.Op != "work" || !strings.Contains(pe.Error(), "poison 7") {
		t.Fatalf("panic error %v", pe)
	}
}

func TestSupervisedQuarantinesPoisonItems(t *testing.T) {
	fn := func(_ context.Context, v int, emit Emit[int]) error {
		if v%2 == 0 {
			return fmt.Errorf("poison %d", v)
		}
		return emit(v)
	}
	dlq := NewDeadLetterQueue[int](8)
	var seen []int
	var mu sync.Mutex
	sup := &Supervisor[int]{
		Retry: RetryPolicy{MaxRetries: 2, BaseBackoff: time.Microsecond},
		DLQ:   dlq,
		OnQuarantine: func(d DeadLetter[int]) {
			mu.Lock()
			seen = append(seen, d.Item)
			mu.Unlock()
		},
	}
	got, stats, err := runSupervisedInts(t, sup, 2, fn, []int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatalf("poison items wedged the pipeline: %v", err)
	}
	sort.Ints(got)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("survivors %v", got)
	}
	if stats.Quarantined() != 3 {
		t.Fatalf("Quarantined() = %d", stats.Quarantined())
	}
	// Each poison item burns its full retry budget before quarantine.
	if stats.Retries() != 6 {
		t.Fatalf("Retries() = %d, want 6", stats.Retries())
	}
	if dlq.Len() != 3 {
		t.Fatalf("DLQ holds %d", dlq.Len())
	}
	for _, d := range dlq.Items() {
		if d.Item%2 != 0 || d.Attempts != 3 || d.Err == nil {
			t.Fatalf("dead letter %+v", d)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("OnQuarantine saw %v", seen)
	}
	if !strings.Contains(stats.String(), "quarantined=3") {
		t.Fatalf("stats string %q", stats.String())
	}
}

func TestDeadLetterQueueBoundedDropsOverflow(t *testing.T) {
	fn := func(_ context.Context, v int, _ Emit[int]) error {
		return errors.New("always poison")
	}
	dlq := NewDeadLetterQueue[int](2)
	sup := &Supervisor[int]{DLQ: dlq}
	_, stats, err := runSupervisedInts(t, sup, 1, fn, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if dlq.Len() != 2 {
		t.Fatalf("DLQ holds %d, cap 2", dlq.Len())
	}
	if dlq.Dropped() != 3 || stats.Dropped() != 3 {
		t.Fatalf("dropped %d / %d, want 3", dlq.Dropped(), stats.Dropped())
	}
	if stats.Quarantined() != 2 {
		t.Fatalf("Quarantined() = %d", stats.Quarantined())
	}
}

func TestSupervisedRetryDiscardsPartialEmissions(t *testing.T) {
	// The item emits once and then fails on its first attempt; a retry
	// must not leave the first attempt's emission downstream.
	var attempts atomic.Int64
	fn := func(_ context.Context, v int, emit Emit[int]) error {
		if err := emit(v); err != nil {
			return err
		}
		if attempts.Add(1) == 1 {
			return errors.New("fail after emit")
		}
		return nil
	}
	sup := &Supervisor[int]{Retry: RetryPolicy{MaxRetries: 2, BaseBackoff: time.Microsecond}}
	got, _, err := runSupervisedInts(t, sup, 1, fn, []int{9})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("retry duplicated emissions: %v", got)
	}
}

func TestSupervisedDoesNotRetryCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g, gctx := NewGroup(ctx)
	reg := NewStatsRegistry()
	in := NewQueue[int]("in", 2)
	out := NewQueue[int]("out", 2)
	started := make(chan struct{})
	fn := func(c context.Context, _ int, _ Emit[int]) error {
		close(started)
		<-c.Done()
		return c.Err()
	}
	RunSource(g, gctx, reg, "src", func(_ context.Context, emit Emit[int]) error {
		return emit(1)
	}, in)
	stats := RunStage(g, gctx, reg, StageConfig[int]{Name: "work", Sup: &Supervisor[int]{
		Retry: RetryPolicy{MaxRetries: 100, BaseBackoff: time.Hour},
	}}, fn, in, out).Stats()
	RunSink(g, gctx, reg, "sink", 1, func(context.Context, int) error { return nil }, out)
	<-started
	cancel()
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if stats.Retries() != 0 {
		t.Fatalf("cancellation was retried %d times", stats.Retries())
	}
}

func TestSupervisedSinkQuarantines(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	reg := NewStatsRegistry()
	in := NewQueue[int]("in", 4)
	RunSource(g, ctx, reg, "src", func(_ context.Context, emit Emit[int]) error {
		for v := 1; v <= 4; v++ {
			if err := emit(v); err != nil {
				return err
			}
		}
		return nil
	}, in)
	var kept []int
	var mu sync.Mutex
	dlq := NewDeadLetterQueue[int](4)
	stats := RunStage(g, ctx, reg, StageConfig[int]{Name: "sink", Sup: &Supervisor[int]{
		Retry: RetryPolicy{MaxRetries: 1, BaseBackoff: time.Microsecond},
		DLQ:   dlq,
	}}, func(_ context.Context, v int, _ Emit[struct{}]) error {
		if v == 2 {
			return errors.New("poison")
		}
		mu.Lock()
		kept = append(kept, v)
		mu.Unlock()
		return nil
	}, in, (*Queue[struct{}])(nil)).Stats()
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 {
		t.Fatalf("kept %v", kept)
	}
	if stats.Quarantined() != 1 || dlq.Len() != 1 {
		t.Fatalf("quarantined %d, dlq %d", stats.Quarantined(), dlq.Len())
	}
}

func TestSupervisedDynamicTransformRetries(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	reg := NewStatsRegistry()
	in := NewQueue[int]("in", 8)
	out := NewQueue[int]("out", 8)
	var failures atomic.Int64
	fn := func(_ context.Context, v int, emit Emit[int]) error {
		if v == 5 && failures.Add(1) == 1 {
			panic("dynamic kaboom")
		}
		return emit(v)
	}
	RunSource(g, ctx, reg, "src", func(_ context.Context, emit Emit[int]) error {
		for v := 1; v <= 8; v++ {
			if err := emit(v); err != nil {
				return err
			}
		}
		return nil
	}, in)
	dt := RunStage(g, ctx, reg, StageConfig[int]{Name: "work", Sup: &Supervisor[int]{
		Retry: RetryPolicy{MaxRetries: 2, BaseBackoff: time.Microsecond},
	}}, fn, in, out)
	sink, snapshot := Collect[int]()
	RunSink(g, ctx, reg, "sink", 1, sink, out)
	dt.AddClone()
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(); len(got) != 8 {
		t.Fatalf("got %d items", len(got))
	}
	if dt.Stats().Retries() != 1 {
		t.Fatalf("Retries() = %d", dt.Stats().Retries())
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	if d := p.Backoff(1, 0); d != time.Millisecond {
		t.Fatalf("attempt 1: %v", d)
	}
	if d := p.Backoff(2, 0); d != 2*time.Millisecond {
		t.Fatalf("attempt 2: %v", d)
	}
	if d := p.Backoff(10, 0); d != 4*time.Millisecond {
		t.Fatalf("attempt 10 should cap at MaxBackoff: %v", d)
	}
}
