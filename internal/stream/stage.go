package stream

import (
	"context"
	"fmt"
	"sync"
	"time"

	"streamkm/internal/obs"
)

// This file holds the single stage runner behind every transform-shaped
// operator. The paper's Conquest engine layers its services —
// supervision, re-optimization, migration — over one operator pipeline
// (§4) rather than forking a dedicated executor per service, and the
// runner mirrors that: supervision (retry/backoff, panic capture,
// dead-lettering) and dynamic scaling (AddClone while the plan runs)
// are orthogonal capabilities of the same clone loop, so an adaptive
// plan can grow replicas of a supervised operator. RunTransform and
// RunSink are thin wrappers over RunStage.
//
// The stage closes structurally: it counts live replicas under its
// mutex, and the replica that brings the count to zero marks the stage
// closed, closes Done and closes the output queue. AddClone checks and
// raises the same count under the same mutex, so a clone can never be
// added to a stage that has already closed.

// Heartbeat is the liveness hook a stage notifies as its replicas
// work; the resource governor's stall watchdog samples it. Begin fires
// after an item is dequeued, End after that item fully completes —
// including its downstream emissions — so a replica wedged inside the
// transform, a retry loop, or a blocked Put all show as a begun-but-
// unfinished item. Implementations must be safe for concurrent use by
// cloned operators (govern.Heartbeat is the canonical one).
type Heartbeat interface {
	Begin()
	End()
}

// StageConfig selects a stage's optional capabilities.
type StageConfig[I any] struct {
	// Name tags goroutines, error messages, and stats.
	Name string
	// Clones is the initial replica count (< 1 is treated as 1).
	Clones int
	// Sup, when non-nil, supervises every replica — including ones
	// added later through AddClone: panics become typed errors,
	// failing items are retried per the policy, and poison items are
	// quarantined to the DLQ (when configured) instead of cancelling
	// the plan. Emissions of a failing attempt are discarded, so
	// retries never duplicate output.
	Sup *Supervisor[I]
	// Beat, when non-nil, brackets every item each replica processes,
	// giving the stall watchdog a per-stage progress signal. Orthogonal
	// to supervision: a supervised item beats once per item, not per
	// retry attempt.
	Beat Heartbeat
}

// Stage is a running transform (or sink) stage. All replicas consume
// the shared input queue; the output queue closes only after the input
// is exhausted and every replica has returned — the fan-in barrier
// that lets a downstream consumer treat cloned operators as one
// logical operator (Fig. 3).
type Stage[I, O any] struct {
	name string
	fn   TransformFunc[I, O]
	in   *Queue[I]
	out  *Queue[O] // nil for sink stages
	g    *Group
	ctx  context.Context
	m    *stageMetrics
	sup  *Supervisor[I] // nil = unsupervised
	beat Heartbeat      // nil = no liveness hook

	mu      sync.Mutex
	initial int
	clones  int
	live    int           // replicas still running
	closed  bool          // every replica returned; no further clones may be added
	done    chan struct{} // closed together with closed
}

// RunStage starts a stage on the group. A nil out makes it a sink
// stage (fn's emissions, if any, are rejected by the nil queue — sink
// adapters simply never emit). The stage records its stream_* families
// and each item's stage_seconds into reg under cfg.Name: an item's
// latency and busy time are measured once per item, not per retry
// attempt, and include its downstream emissions. reg may be nil.
func RunStage[I, O any](g *Group, ctx context.Context, reg *obs.Registry, cfg StageConfig[I], fn TransformFunc[I, O], in *Queue[I], out *Queue[O]) *Stage[I, O] {
	initial := cfg.Clones
	if initial < 1 {
		initial = 1
	}
	s := &Stage[I, O]{
		name:    cfg.Name,
		fn:      fn,
		in:      in,
		out:     out,
		g:       g,
		ctx:     ctx,
		m:       newStageMetrics(reg, cfg.Name, true),
		sup:     cfg.Sup,
		beat:    cfg.Beat,
		initial: initial,
		done:    make(chan struct{}),
	}
	s.mu.Lock()
	for i := 0; i < initial; i++ {
		s.spawnLocked()
	}
	s.mu.Unlock()
	return s
}

// replicaDone retires one replica. The last one to return closes the
// stage: no clone can be added after that, and end-of-stream
// propagates downstream.
func (s *Stage[I, O]) replicaDone() {
	s.mu.Lock()
	s.live--
	last := s.live == 0
	if last {
		s.closed = true
		close(s.done)
	}
	s.mu.Unlock()
	if last && s.out != nil {
		s.out.Close()
	}
}

// Done returns a channel that is closed once the stage has finished:
// its input is exhausted (or its context cancelled) and every replica
// has returned. Sidecars watching the stage end on it.
func (s *Stage[I, O]) Done() <-chan struct{} { return s.done }

// Clones returns the current replica count.
func (s *Stage[I, O]) Clones() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clones
}

// AddClone spawns one more replica — the re-optimizer's scale-up
// primitive. It reports false when the stage has already drained its
// input (scaling up would be pointless).
func (s *Stage[I, O]) AddClone() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.spawnLocked()
	return true
}

// spawnLocked registers and starts one replica; s.mu must be held.
func (s *Stage[I, O]) spawnLocked() {
	idx := s.clones
	s.clones++
	s.m.clones.SetMax(int64(s.clones))
	// A single-replica stage keeps the bare operator name (so errors
	// read "partial-kmeans", not "partial-kmeans#0"); replicas of a
	// multi-clone or scaled-up stage are numbered.
	cloneName := s.name
	if !(idx == 0 && s.initial == 1) {
		cloneName = fmt.Sprintf("%s#%d", s.name, idx)
	}
	s.live++
	s.g.Go(cloneName, func() error {
		defer s.replicaDone()
		var buf []O
		emit := func(v O) error {
			if err := s.out.Put(s.ctx, v); err != nil {
				return err
			}
			s.m.itemsOut.Inc()
			return nil
		}
		for {
			item, ok, err := s.in.Get(s.ctx)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			s.m.itemsIn.Inc()
			if err := s.processOne(cloneName, item, &buf, emit); err != nil {
				return err
			}
		}
	})
}

// processOne pushes one item through the operator function (supervised
// or not), bracketed by the heartbeat hook so the stall watchdog sees
// the item as in flight until its emissions land downstream. A
// quarantined item completes the bracket and returns nil — from the
// governor's perspective giving up on an item is progress too.
func (s *Stage[I, O]) processOne(cloneName string, item I, buf *[]O, emit func(O) error) error {
	if s.beat != nil {
		s.beat.Begin()
		defer s.beat.End()
	}
	start := time.Now()
	defer func() {
		d := time.Since(start)
		s.m.busy.Add(d.Seconds())
		s.m.seconds.ObserveDuration(d)
	}()
	if s.sup == nil {
		return s.fn(s.ctx, item, emit)
	}
	ok, err := superviseItem(s.ctx, cloneName, s.sup, s.sup.itemSeed(item), s.m, s.fn, item, buf)
	if err != nil || !ok {
		return err // failed, or quarantined (ok=false, err=nil)
	}
	for _, v := range *buf {
		if err := emit(v); err != nil {
			return err
		}
	}
	return nil
}
