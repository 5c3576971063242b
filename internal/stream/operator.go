package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
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

// OpStats reports one operator's lifetime counters. Clones of an operator
// aggregate into a single OpStats, and so do restart attempts of the
// same plan: re-registering an operator name in a registry returns the
// existing entry, so counters accumulate across every attempt instead
// of reporting only the last one.
type OpStats struct {
	name      string
	clones    atomic.Int32
	processed atomic.Int64
	emitted   atomic.Int64
	busyNanos atomic.Int64
	// Fault-tolerance counters, maintained by the supervised runners.
	retries     atomic.Int64
	quarantined atomic.Int64
	dropped     atomic.Int64
	panics      atomic.Int64
}

// Name returns the operator name.
func (s *OpStats) Name() string { return s.name }

// Clones returns the high-water replica count the operator ran with.
func (s *OpStats) Clones() int { return int(s.clones.Load()) }

// growClones raises the recorded replica count to n (never lowers it),
// so a stage scaled up by the re-optimizer reports its peak.
func (s *OpStats) growClones(n int32) {
	for {
		cur := s.clones.Load()
		if n <= cur || s.clones.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Processed returns the number of input items consumed.
func (s *OpStats) Processed() int64 { return s.processed.Load() }

// Emitted returns the number of output items produced.
func (s *OpStats) Emitted() int64 { return s.emitted.Load() }

// Busy returns the cumulative time spent inside the operator function,
// summed across clones (so with c clones Busy can exceed wall-clock).
func (s *OpStats) Busy() time.Duration { return time.Duration(s.busyNanos.Load()) }

// Retries returns the number of item-level retry attempts performed by a
// supervised runner (0 for unsupervised operators).
func (s *OpStats) Retries() int64 { return s.retries.Load() }

// Quarantined returns the number of poison items diverted to the
// dead-letter queue after exhausting their retry budget.
func (s *OpStats) Quarantined() int64 { return s.quarantined.Load() }

// Dropped returns the number of poison items lost because the dead-letter
// queue was full.
func (s *OpStats) Dropped() int64 { return s.dropped.Load() }

// Panics returns the number of operator panics recovered by supervision
// (0 for unsupervised operators, whose panics kill the plan instead).
func (s *OpStats) Panics() int64 { return s.panics.Load() }

// String formats the stats for logs and tables.
func (s *OpStats) String() string {
	base := fmt.Sprintf("%s[x%d]: in=%d out=%d busy=%v",
		s.name, s.Clones(), s.Processed(), s.Emitted(), s.Busy())
	if r, q, d, p := s.Retries(), s.Quarantined(), s.Dropped(), s.Panics(); r > 0 || q > 0 || d > 0 || p > 0 {
		base += fmt.Sprintf(" retries=%d quarantined=%d dropped=%d panics=%d", r, q, d, p)
	}
	return base
}

// StatsRegistry collects OpStats for every operator in a running plan.
type StatsRegistry struct {
	mu    sync.Mutex
	stats []*OpStats
}

// NewStatsRegistry returns an empty registry.
func NewStatsRegistry() *StatsRegistry { return &StatsRegistry{} }

// register returns the stats slot for name, creating it on first use.
// Re-registering an existing name (a restarted plan rebuilding its
// pipeline) returns the same slot so counters aggregate across
// attempts rather than resetting.
func (r *StatsRegistry) register(name string, clones int) *OpStats {
	if r == nil {
		s := &OpStats{name: name}
		s.growClones(int32(clones))
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.stats {
		if s.name == name {
			s.growClones(int32(clones))
			return s
		}
	}
	s := &OpStats{name: name}
	s.growClones(int32(clones))
	r.stats = append(r.stats, s)
	return s
}

// All returns the registered operator stats in registration order.
func (r *StatsRegistry) All() []*OpStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*OpStats, len(r.stats))
	copy(out, r.stats)
	return out
}

// Lookup returns the stats for the named operator, or nil.
func (r *StatsRegistry) Lookup(name string) *OpStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.stats {
		if s.name == name {
			return s
		}
	}
	return nil
}

// RunSource starts fn on the group, emitting into out. The output queue
// is closed when the source returns, propagating end-of-stream
// downstream. reg may be nil.
func RunSource[T any](g *Group, ctx context.Context, reg *StatsRegistry, name string, fn SourceFunc[T], out *Queue[T]) *OpStats {
	stats := reg.register(name, 1)
	g.Go(name, func() error {
		defer out.Close()
		start := time.Now()
		defer func() { stats.busyNanos.Add(int64(time.Since(start))) }()
		emit := func(v T) error {
			if err := out.Put(ctx, v); err != nil {
				return err
			}
			stats.emitted.Add(1)
			return nil
		}
		return fn(ctx, emit)
	})
	return stats
}

// RunTransform starts clones replicas of fn on the group, all consuming
// from in and emitting to out. The output queue closes only after every
// clone finishes, which is the fan-in barrier that lets a downstream
// consumer treat cloned operators as one logical operator (Fig. 3).
// clones < 1 is treated as 1. reg may be nil.
func RunTransform[I, O any](g *Group, ctx context.Context, reg *StatsRegistry, name string, clones int, fn TransformFunc[I, O], in *Queue[I], out *Queue[O]) *OpStats {
	return RunStage(g, ctx, reg, StageConfig[I]{Name: name, Clones: clones}, fn, in, out).Stats()
}

// RunSink starts clones replicas of fn on the group, consuming from in.
// clones < 1 is treated as 1. reg may be nil.
func RunSink[I any](g *Group, ctx context.Context, reg *StatsRegistry, name string, clones int, fn SinkFunc[I], in *Queue[I]) *OpStats {
	asTransform := func(ctx context.Context, item I, _ Emit[struct{}]) error { return fn(ctx, item) }
	return RunStage(g, ctx, reg, StageConfig[I]{Name: name, Clones: clones}, asTransform, in, (*Queue[struct{}])(nil)).Stats()
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
