package stream

import (
	"context"
	"sync"
	"time"

	"streamkm/internal/obs"
)

// Emit delivers one output item downstream, blocking under backpressure.
type Emit[T any] func(T) error

// SourceFunc produces a stream of items by calling emit repeatedly; it
// returns when the source is exhausted (the scan operators of §3.1).
type SourceFunc[T any] func(ctx context.Context, emit Emit[T]) error

// TransformFunc consumes one input item and emits zero or more output
// items (the partial k-means operator consumes a chunk, emits a weighted
// centroid set).
type TransformFunc[I, O any] func(ctx context.Context, in I, emit Emit[O]) error

// SinkFunc consumes one input item and produces no stream output (the
// merge operator at the plan root feeds a result collector).
type SinkFunc[I any] func(ctx context.Context, in I) error

// stageMetrics caches one stage's (or source's) instruments, labeled
// by its name. The registry's get-or-create makes clones of a stage
// share them, and so do the stages a restarted plan rebuilds under the
// same name: counts accumulate across every attempt.
type stageMetrics struct {
	itemsIn, itemsOut                     *obs.Counter
	retries, quarantined, dropped, panics *obs.Counter
	clones                                *obs.Gauge
	busy                                  *obs.FloatGauge
	// seconds is the per-item stage_seconds histogram (nil for sources,
	// which have no items of their own).
	seconds *obs.Histogram
}

// newStageMetrics looks up name's instruments in reg, with the
// per-item latency histogram when perItem is set. A nil reg records
// nothing: the stage updates instruments no one reads.
func newStageMetrics(reg *obs.Registry, name string, perItem bool) *stageMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &stageMetrics{
		itemsIn:     reg.Counter(obs.StreamItemsIn, name),
		itemsOut:    reg.Counter(obs.StreamItemsOut, name),
		retries:     reg.Counter(obs.StreamRetries, name),
		quarantined: reg.Counter(obs.StreamQuarantined, name),
		dropped:     reg.Counter(obs.StreamDropped, name),
		panics:      reg.Counter(obs.StreamPanics, name),
		clones:      reg.Gauge(obs.StreamClones, name),
		busy:        reg.FloatGauge(obs.StreamBusySeconds, name),
	}
	if perItem {
		m.seconds = reg.Histogram(obs.StageSeconds, name, obs.LatencyBuckets())
	}
	return m
}

// RunSource starts fn on the group, emitting into out. The output queue
// is closed when the source returns, propagating end-of-stream
// downstream. The source records its stream_* families into reg under
// name; reg may be nil.
func RunSource[T any](g *Group, ctx context.Context, reg *obs.Registry, name string, fn SourceFunc[T], out *Queue[T]) {
	m := newStageMetrics(reg, name, false)
	m.clones.SetMax(1)
	g.Go(name, func() error {
		defer out.Close()
		start := time.Now()
		defer func() { m.busy.Add(time.Since(start).Seconds()) }()
		emit := func(v T) error {
			if err := out.Put(ctx, v); err != nil {
				return err
			}
			m.itemsOut.Inc()
			return nil
		}
		return fn(ctx, emit)
	})
}

// RunTransform starts clones replicas of fn on the group, all consuming
// from in and emitting to out. The output queue closes only after every
// clone finishes, which is the fan-in barrier that lets a downstream
// consumer treat cloned operators as one logical operator (Fig. 3).
// clones < 1 is treated as 1. reg may be nil.
func RunTransform[I, O any](g *Group, ctx context.Context, reg *obs.Registry, name string, clones int, fn TransformFunc[I, O], in *Queue[I], out *Queue[O]) {
	RunStage(g, ctx, reg, StageConfig[I]{Name: name, Clones: clones}, fn, in, out)
}

// RunSink starts clones replicas of fn on the group, consuming from in.
// clones < 1 is treated as 1. reg may be nil.
func RunSink[I any](g *Group, ctx context.Context, reg *obs.Registry, name string, clones int, fn SinkFunc[I], in *Queue[I]) {
	asTransform := func(ctx context.Context, item I, _ Emit[struct{}]) error { return fn(ctx, item) }
	RunStage(g, ctx, reg, StageConfig[I]{Name: name, Clones: clones}, asTransform, in, (*Queue[struct{}])(nil))
}

// Collect is a convenience sink that appends every item into a slice
// guarded by a mutex and returns an accessor. It is the result collector
// at the root of test and example plans.
func Collect[T any]() (SinkFunc[T], func() []T) {
	var mu sync.Mutex
	var items []T
	sink := func(_ context.Context, v T) error {
		mu.Lock()
		items = append(items, v)
		mu.Unlock()
		return nil
	}
	snapshot := func() []T {
		mu.Lock()
		defer mu.Unlock()
		out := make([]T, len(items))
		copy(out, items)
		return out
	}
	return sink, snapshot
}
