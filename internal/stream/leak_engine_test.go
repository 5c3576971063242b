// Goroutine-leak coverage for the governor's engine-level cancellation
// paths. These live in the external test package so they can drive the
// real engine (which imports stream) through a whole-process goroutine
// census: after a deadline fires mid-recovery or a stall watchdog
// cancels and the plan retries, nothing — replicas, sources, closers,
// watchdogs — may survive Execute returning.
package stream_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"streamkm/internal/dataset"
	"streamkm/internal/engine"
	"streamkm/internal/fault"
	"streamkm/internal/govern"
	"streamkm/internal/grid"
)

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (scheduler cleanup is asynchronous). Mirrors the helper in
// the internal test package, which this package cannot import.
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

// leakCells builds a one-cell workload that chunks into 4 tasks.
func leakCells(t *testing.T) ([]engine.Cell, engine.Query, engine.PhysicalPlan) {
	t.Helper()
	spec := dataset.DefaultCellSpec()
	spec.Clusters = 5
	spec.Dim = 4
	set, err := dataset.GenerateCell(spec, 600, 21)
	if err != nil {
		t.Fatal(err)
	}
	cells := []engine.Cell{{Key: grid.CellKey{Lat: 1, Lon: 1}, Points: set}}
	q := engine.Query{K: 5, Restarts: 2, Seed: 77}
	plan := engine.PhysicalPlan{ChunkPoints: 150, PartialClones: 1, QueueCapacity: 2}
	return cells, q, plan
}

// TestDeadlineDuringRecoveryLeavesNoGoroutines crashes the first
// attempt (forcing a journaled restart) and then wedges a chunk of the
// recovery attempt for far longer than the deadline, so the deadline
// expires while the plan is mid-recovery. The run fails loudly — no
// degraded option — and every pipeline goroutine must be gone.
func TestDeadlineDuringRecoveryLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cells, q, plan := leakCells(t)
	inj := fault.New(fault.Config{ErrorNth: 1, DelayNth: 3, DelayDur: 10 * time.Second})
	var restarts int
	exec := engine.NewExec(q, plan,
		engine.WithFaultInjection(inj),
		engine.WithRestarts(1),
		engine.WithOnRestart(func(int, error) { restarts++ }),
		engine.WithBudget(govern.Budget{Deadline: 300 * time.Millisecond}),
	)
	_, _, err := exec.Execute(context.Background(), cells)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if restarts != 1 {
		t.Fatalf("restarts = %d, want 1 journaled recovery before the deadline", restarts)
	}
	waitForGoroutines(t, baseline)
}

// TestStallRetryLeavesNoGoroutines wedges one chunk, lets the watchdog
// cancel the attempt, and lets the restart budget re-run the plan to a
// full answer. The stalled replica of the first attempt — parked inside
// the injected stall — must be released by the attempt cancellation,
// not abandoned.
func TestStallRetryLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cells, q, plan := leakCells(t)
	exec := engine.NewExec(q, plan,
		engine.WithFaultInjection(fault.StallNth(2)),
		engine.WithRestarts(1),
		engine.WithBudget(govern.Budget{ProgressTimeout: 60 * time.Millisecond}),
	)
	results, stats, err := exec.Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d, want the full single-cell answer", len(results))
	}
	if stats.Stalls != 1 || stats.Restarts != 1 {
		t.Fatalf("stalls = %d restarts = %d, want one watchdog cancel and one retry",
			stats.Stalls, stats.Restarts)
	}
	waitForGoroutines(t, baseline)
}
