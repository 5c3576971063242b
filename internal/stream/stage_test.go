package stream

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"streamkm/internal/obs"
)

// Tests for the unified stage runner's distinguishing power: the
// supervision and dynamic-scaling capabilities must compose on one
// stage, and the retry helpers must behave identically for operators
// and external callers.

func TestStageSupervisedAndDynamicCompose(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	reg := obs.NewRegistry()
	in := NewQueue[int]("in", 4)
	out := NewQueue[int]("out", 200)
	release := make(chan struct{})
	var started atomic.Int32
	var failedOnce atomic.Bool
	// Each item fails its first attempt; clone 0 blocks until released
	// so added clones observably share the load. Supervised stages must
	// retry on every replica, including ones added after start.
	fn := func(_ context.Context, x int, emit Emit[int]) error {
		if x == 7 && !failedOnce.Swap(true) {
			return errors.New("transient")
		}
		started.Add(1)
		<-release
		return emit(x * 10)
	}
	sup := &Supervisor[int]{Retry: RetryPolicy{MaxRetries: 3, BaseBackoff: -1}}
	RunSource(g, ctx, reg, "src", rangeSource(40), in)
	st := RunStage(g, ctx, reg, StageConfig[int]{Name: "work", Clones: 1, Sup: sup}, fn, in, out)
	sink, snap := Collect[int]()
	RunSink(g, ctx, reg, "sink", 1, sink, out)

	deadline := time.After(2 * time.Second)
	for started.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("first item never reached the stage")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 2; i++ {
		if !st.AddClone() {
			t.Fatal("AddClone refused while input open")
		}
	}
	if st.Clones() != 3 {
		t.Fatalf("clones = %d, want 3", st.Clones())
	}
	close(release)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := snap(); len(got) != 40 {
		t.Fatalf("delivered %d items, want 40", len(got))
	}
	work := stageView{reg, "work"}
	if work.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", work.Retries())
	}
	if work.Clones() != 3 {
		t.Fatalf("stream_clones = %d, want 3", work.Clones())
	}
	if work.Busy() == 0 {
		t.Fatal("dynamic stage recorded no busy time")
	}
}

// TestRestartedStageAccumulates runs a stage twice under one name into
// one registry, as a restarted plan rebuilds its pipeline: the second
// run's counts add to the first's, and the clone gauge keeps its
// high-water mark.
func TestRestartedStageAccumulates(t *testing.T) {
	reg := obs.NewRegistry()
	for _, clones := range []int{2, 1} {
		g, ctx := NewGroup(context.Background())
		in := NewQueue[int]("in", 4)
		RunSource(g, ctx, reg, "src", rangeSource(5), in)
		RunSink(g, ctx, reg, "op", clones, func(context.Context, int) error { return nil }, in)
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	op := stageView{reg, "op"}
	if op.Processed() != 10 {
		t.Fatalf("counts reset on the second run: processed = %d, want 10", op.Processed())
	}
	if op.Clones() != 2 {
		t.Fatalf("stream_clones = %d, want high-water 2", op.Clones())
	}
	if n := len(reg.Snapshot().Counters); n != 12 {
		t.Fatalf("registry holds %d counters, want 6 per stage name", n)
	}
}

func TestRetryPolicyAttempts(t *testing.T) {
	// Succeeds on the 3rd attempt within budget.
	calls := 0
	var retried []int
	n, err := RetryPolicy{MaxRetries: 5, BaseBackoff: -1}.Attempts(context.Background(), 0,
		func(attempt int, _ error) { retried = append(retried, attempt) },
		func(attempt int) error {
			calls++
			if attempt < 3 {
				return errors.New("flaky")
			}
			return nil
		})
	if err != nil || n != 3 || calls != 3 {
		t.Fatalf("attempts = %d, calls = %d, err = %v", n, calls, err)
	}
	if len(retried) != 2 || retried[0] != 1 || retried[1] != 2 {
		t.Fatalf("onRetry saw %v", retried)
	}

	// Budget exhaustion returns the final error and attempt count.
	boom := errors.New("permanent")
	n, err = RetryPolicy{MaxRetries: 2, BaseBackoff: -1}.Attempts(context.Background(), 0, nil,
		func(int) error { return boom })
	if !errors.Is(err, boom) || n != 3 {
		t.Fatalf("attempts = %d, err = %v, want 3 attempts of boom", n, err)
	}

	// Lifecycle errors abort without retrying.
	n, err = RetryPolicy{MaxRetries: 5, BaseBackoff: -1}.Attempts(context.Background(), 0, nil,
		func(int) error { return context.Canceled })
	if !errors.Is(err, context.Canceled) || n != 1 {
		t.Fatalf("cancellation retried: attempts = %d, err = %v", n, err)
	}
}

func TestBackoffNegativeBaseDisablesDelay(t *testing.T) {
	p := RetryPolicy{MaxRetries: 3, BaseBackoff: -1, MaxBackoff: time.Second}
	for attempt := 1; attempt <= 10; attempt++ {
		if d := p.Backoff(attempt, 0); d != 0 {
			t.Fatalf("Backoff(%d) = %v, want 0 for negative base", attempt, d)
		}
	}
}

func TestSinkStageAddCloneAfterDrain(t *testing.T) {
	g, ctx := NewGroup(context.Background())
	in := NewQueue[int]("in", 4)
	reg := obs.NewRegistry()
	RunSource(g, ctx, reg, "src", rangeSource(3), in)
	st := RunStage(g, ctx, reg, StageConfig[int]{Name: "sink", Clones: 2},
		func(context.Context, int, Emit[struct{}]) error { return nil }, in, (*Queue[struct{}])(nil))
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if st.AddClone() {
		t.Fatal("AddClone after drain should report false")
	}
	if got := (stageView{reg, "sink"}).Processed(); got != 3 {
		t.Fatalf("processed = %d, want 3", got)
	}
}

// TestAddCloneRacesStageClose races the re-optimizer's scale-up
// primitive against a one-clone stage that is draining its last item.
// A clone must either join before the last replica returns or be
// refused; it must never slip in while the stage closes.
func TestAddCloneRacesStageClose(t *testing.T) {
	for round := 0; round < 2000; round++ {
		g, ctx := NewGroup(context.Background())
		in := NewQueue[int]("in", 1)
		out := NewQueue[int]("out", 4)
		RunSource(g, ctx, nil, "src", rangeSource(1), in)
		st := RunStage(g, ctx, nil, StageConfig[int]{Name: "drain"},
			func(_ context.Context, x int, emit Emit[int]) error { return emit(x) }, in, out)
		RunSink(g, ctx, nil, "sink", 1, func(context.Context, int) error { return nil }, out)
		g.Go("scaler", func() error {
			for i := 0; i < 64 && st.AddClone(); i++ {
			}
			return nil
		})
		if err := g.Wait(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		select {
		case <-st.Done():
		default:
			t.Fatalf("round %d: stage not done after Wait", round)
		}
		if st.AddClone() {
			t.Fatalf("round %d: AddClone succeeded on a closed stage", round)
		}
	}
}
