package engine

import (
	"context"
	"fmt"
	"time"

	"streamkm/internal/stream"
)

// This file implements dynamic query re-optimization (§4: Conquest
// "includes a query re-optimizer for dynamic adaptation of long running
// queries, but we did not exploit this component in the tests" — here we
// do). A monitor samples the chunk queue while the plan runs; sustained
// backlog means the partial operator is the bottleneck, and the
// re-optimizer responds by cloning another replica, up to the worker
// budget. It is a service of the composable executor (WithReopt in
// exec.go), so it stacks with supervision: scaled-up replicas of a
// supervised stage retry and quarantine just like the initial ones.

// ReoptPolicy tunes the monitor.
type ReoptPolicy struct {
	// SampleInterval is how often the monitor inspects the plan
	// (0 = 5ms).
	SampleInterval time.Duration
	// BacklogFraction is the queue fill level treated as congestion
	// (0 = 0.5).
	BacklogFraction float64
	// SustainedSamples is how many consecutive congested samples
	// trigger a scale-up (0 = 2).
	SustainedSamples int
	// MaxClones caps the partial operator's replica count (0 = no
	// scaling beyond the initial clone).
	MaxClones int
}

func (p ReoptPolicy) withDefaults() ReoptPolicy {
	if p.SampleInterval == 0 {
		p.SampleInterval = 5 * time.Millisecond
	}
	if p.BacklogFraction == 0 {
		p.BacklogFraction = 0.5
	}
	if p.SustainedSamples == 0 {
		p.SustainedSamples = 2
	}
	return p
}

// ReoptEvent records one re-optimizer decision.
type ReoptEvent struct {
	// At is the offset from plan start.
	At time.Duration
	// Clones is the replica count after the decision.
	Clones int
	// Backlog is the chunk-queue depth that triggered it.
	Backlog int
}

// String formats an event for logs.
func (e ReoptEvent) String() string {
	return fmt.Sprintf("t=%v clones->%d (backlog %d)", e.At.Round(time.Millisecond), e.Clones, e.Backlog)
}

// runReoptMonitor starts the re-optimizer on the plan's group: it
// samples the chunk queue until the partial stage finishes (st.Done)
// or the attempt is cancelled, appending scale-up decisions to events.
func (e *Exec) runReoptMonitor(g *stream.Group, gctx context.Context, st *stream.Stage[chunkTask, partialOut], chunkQ *stream.Queue[chunkTask], start time.Time, events *[]ReoptEvent) {
	policy := e.reopt.withDefaults()
	g.Go("reoptimizer", func() error {
		congested := 0
		ticker := time.NewTicker(policy.SampleInterval)
		defer ticker.Stop()
		for {
			select {
			case <-gctx.Done():
				return nil
			case <-st.Done():
				return nil
			case <-ticker.C:
			}
			// High-water depth since the last sample, not instantaneous
			// Len: the monitor tends to get scheduled exactly when the
			// partial operator has just drained the queue, which would
			// hide congestion entirely (most acutely on one CPU).
			depth := chunkQ.HighWater()
			if float64(depth) >= policy.BacklogFraction*float64(chunkQ.Cap()) {
				congested++
			} else {
				congested = 0
			}
			if congested >= policy.SustainedSamples && st.Clones() < policy.MaxClones {
				if st.AddClone() {
					// Only this goroutine appends, and the executor reads
					// events after g.Wait returns, so no lock is needed.
					*events = append(*events, ReoptEvent{
						At:      time.Since(start),
						Clones:  st.Clones(),
						Backlog: depth,
					})
				}
				congested = 0
			}
		}
	})
}
