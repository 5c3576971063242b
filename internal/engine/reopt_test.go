package engine

import (
	"context"
	"math"
	"testing"
	"time"

	"streamkm/internal/grid"
	"streamkm/internal/stream"
)

func TestReoptMatchesExecute(t *testing.T) {
	cells := []Cell{
		{Key: grid.CellKey{Lat: 1, Lon: 1}, Points: engineCell(t, 800, 31)},
		{Key: grid.CellKey{Lat: 1, Lon: 2}, Points: engineCell(t, 600, 32)},
	}
	q := Query{K: 6, Restarts: 2, Seed: 17}
	plan := PhysicalPlan{ChunkPoints: 200, PartialClones: 1, QueueCapacity: 2}
	fixed, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, stats, err := NewExec(q, plan, WithReopt(ReoptPolicy{
		SampleInterval: time.Millisecond,
		MaxClones:      4,
	})).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cells != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	for i := range fixed {
		if math.Abs(fixed[i].Result.MSE-adaptive[i].Result.MSE) > 1e-12 {
			t.Fatalf("cell %d: adaptive MSE %g != fixed %g",
				i, adaptive[i].Result.MSE, fixed[i].Result.MSE)
		}
		for j := range fixed[i].Result.Centroids {
			if !fixed[i].Result.Centroids[j].Equal(adaptive[i].Result.Centroids[j]) {
				t.Fatalf("cell %d centroid %d differs under re-optimization", i, j)
			}
		}
	}
}

func TestReoptScalesUpUnderBacklog(t *testing.T) {
	// A tiny queue and a slow-ish workload with many chunks keeps the
	// chunk queue full, so the re-optimizer must add clones.
	cells := []Cell{{Key: grid.CellKey{}, Points: engineCell(t, 4000, 33)}}
	q := Query{K: 8, Restarts: 3, Seed: 3}
	plan := PhysicalPlan{ChunkPoints: 100, PartialClones: 1, QueueCapacity: 2}
	_, stats, err := NewExec(q, plan, WithReopt(ReoptPolicy{
		SampleInterval:   500 * time.Microsecond,
		SustainedSamples: 1,
		MaxClones:        4,
	})).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	events := stats.ReoptEvents
	if len(events) == 0 {
		t.Fatal("re-optimizer never scaled up despite sustained backlog")
	}
	last := events[len(events)-1]
	if last.Clones > 4 {
		t.Fatalf("scaled beyond MaxClones: %+v", last)
	}
	if last.Clones < 2 {
		t.Fatalf("expected at least one scale-up, got %+v", events)
	}
	if last.String() == "" {
		t.Fatal("event should format")
	}
	op := stats.Registry.Lookup("partial-kmeans")
	if op == nil || op.Clones() != last.Clones {
		t.Fatalf("registry clones %v != event %d", op, last.Clones)
	}
}

func TestReoptNoScalingWithoutBudget(t *testing.T) {
	cells := []Cell{{Key: grid.CellKey{}, Points: engineCell(t, 1000, 34)}}
	q := Query{K: 6, Restarts: 2, Seed: 5}
	plan := PhysicalPlan{ChunkPoints: 100, PartialClones: 1, QueueCapacity: 2}
	// MaxClones 0/1 means the monitor may never add a clone.
	_, stats, err := NewExec(q, plan, WithReopt(ReoptPolicy{
		SampleInterval:   time.Millisecond,
		SustainedSamples: 1,
		MaxClones:        1,
	})).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.ReoptEvents) != 0 {
		t.Fatalf("scaled despite MaxClones=1: %+v", stats.ReoptEvents)
	}
}

func TestReoptValidation(t *testing.T) {
	if _, _, err := NewExec(Query{K: 2, Restarts: 1}, PhysicalPlan{ChunkPoints: 10},
		WithReopt(ReoptPolicy{})).Execute(context.Background(), nil); err == nil {
		t.Fatal("no cells should error")
	}
}

// TestReoptMonitorEndsOnDrainedStage starts the monitor against a
// partial stage that has already drained its input. The monitor must
// end on the stage's own completion, so the group's Wait returns even
// when every item was processed before the monitor started.
func TestReoptMonitorEndsOnDrainedStage(t *testing.T) {
	g, gctx := stream.NewGroup(context.Background())
	chunkQ := stream.NewQueue[chunkTask]("chunks", 2)
	partQ := stream.NewQueue[partialOut]("partials", 2)
	st := stream.RunStage(g, gctx, nil, stream.StageConfig[chunkTask]{Name: "partial-kmeans"},
		func(context.Context, chunkTask, stream.Emit[partialOut]) error { return nil }, chunkQ, partQ)
	if err := chunkQ.Put(gctx, chunkTask{}); err != nil {
		t.Fatal(err)
	}
	chunkQ.Close()
	<-st.Done()

	e := &Exec{reopt: &ReoptPolicy{SampleInterval: time.Millisecond, MaxClones: 4}}
	var events []ReoptEvent
	e.runReoptMonitor(g, gctx, st, chunkQ, time.Now(), &events)
	done := make(chan error, 1)
	go func() { done <- g.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reopt monitor outlived its drained stage")
	}
	if len(events) != 0 {
		t.Fatalf("monitor scaled a finished stage: %v", events)
	}
}
