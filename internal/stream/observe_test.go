package stream

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"streamkm/internal/obs"
)

// Tests for what stages record into the obs registry: the per-item
// stage_seconds histogram and the panic counter behind the
// stream_panics family.

// stageView reads one stage's stream_* families back from a registry.
type stageView struct {
	reg   *obs.Registry
	stage string
}

func (v stageView) counter(name string) int64 { return v.reg.Snapshot().Counter(name, v.stage) }

func (v stageView) gauge(name string) float64 {
	g, _ := v.reg.Snapshot().Gauge(name, v.stage)
	return g
}

func (v stageView) Processed() int64   { return v.counter(obs.StreamItemsIn) }
func (v stageView) Emitted() int64     { return v.counter(obs.StreamItemsOut) }
func (v stageView) Retries() int64     { return v.counter(obs.StreamRetries) }
func (v stageView) Quarantined() int64 { return v.counter(obs.StreamQuarantined) }
func (v stageView) Dropped() int64     { return v.counter(obs.StreamDropped) }
func (v stageView) Panics() int64      { return v.counter(obs.StreamPanics) }
func (v stageView) Clones() int        { return int(v.gauge(obs.StreamClones)) }
func (v stageView) Busy() float64      { return v.gauge(obs.StreamBusySeconds) }

// TestStageObserveFiresOncePerItem runs a supervised stage where one
// item fails its first attempt: stage_seconds must be observed once per
// item (after the item fully completes, retries included), never per
// attempt, because it is a per-chunk histogram.
func TestStageObserveFiresOncePerItem(t *testing.T) {
	const items = 12
	var failedOnce atomic.Bool
	g, ctx := NewGroup(context.Background())
	reg := obs.NewRegistry()
	in := NewQueue[int]("in", 4)
	out := NewQueue[int]("out", items)
	fn := func(_ context.Context, x int, emit Emit[int]) error {
		if x == 5 && !failedOnce.Swap(true) {
			return errors.New("transient")
		}
		return emit(x)
	}
	sup := &Supervisor[int]{Retry: RetryPolicy{MaxRetries: 2, BaseBackoff: -1}}
	RunSource(g, ctx, reg, "src", rangeSource(items), in)
	RunStage(g, ctx, reg, StageConfig[int]{Name: "work", Clones: 2, Sup: sup}, fn, in, out)
	sink, snap := Collect[int]()
	RunSink(g, ctx, reg, "sink", 1, sink, out)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(snap()) != items {
		t.Fatalf("delivered %d items, want %d", len(snap()), items)
	}
	h := reg.Snapshot().Histogram(obs.StageSeconds, "work")
	if h == nil || h.Count != items {
		t.Fatalf("stage_seconds = %+v, want count %d (once per item)", h, items)
	}
	if h.Min < 0 {
		t.Fatalf("negative item duration %g", h.Min)
	}
	if got := (stageView{reg, "work"}).Retries(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
}

// TestStageCountsPanics recovers a transient panic under supervision
// and requires it on the stream_panics counter without also counting
// plain errors.
func TestStageCountsPanics(t *testing.T) {
	var panicked, errored atomic.Bool
	fn := func(_ context.Context, v int, emit Emit[int]) error {
		if v == 3 && !panicked.Swap(true) {
			panic("transient poison")
		}
		if v == 4 && !errored.Swap(true) {
			return errors.New("plain failure")
		}
		return emit(v)
	}
	sup := &Supervisor[int]{Retry: RetryPolicy{MaxRetries: 2, BaseBackoff: -1}}
	got, stats, err := runSupervisedInts(t, sup, 2, fn, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d items, want 5", len(got))
	}
	if stats.Panics() != 1 {
		t.Fatalf("Panics() = %d, want 1 (the plain error must not count)", stats.Panics())
	}
	if stats.Retries() != 2 {
		t.Fatalf("Retries() = %d, want 2", stats.Retries())
	}
}
