package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/fault"
	"streamkm/internal/govern"
	"streamkm/internal/grid"
	"streamkm/internal/metrics"
	"streamkm/internal/obs"
	"streamkm/internal/rng"
)

// governCells builds a two-cell workload whose chunking is exactly
// predictable: cell 0 slices into 4 chunks of 150, cell 1 into 3. With
// PartialClones=1 the pipeline processes tasks strictly in order, so
// the injector's 1-based invocation n always hits tasks[n-1].
func governCells(t *testing.T) ([]Cell, Query, PhysicalPlan) {
	t.Helper()
	cells := []Cell{
		{Key: grid.CellKey{Lat: 1, Lon: 1}, Points: engineCell(t, 600, 21)},
		{Key: grid.CellKey{Lat: 2, Lon: 2}, Points: engineCell(t, 450, 22)},
	}
	q := Query{K: 5, Restarts: 2, Seed: 77}
	plan := PhysicalPlan{ChunkPoints: 150, PartialClones: 1, QueueCapacity: 2}
	return cells, q, plan
}

// expectSurvivorResults computes, outside the engine, what partial/merge
// over only the surviving partitions produces: run the partial step on
// every non-dropped chunk with a copy of its pre-derived RNG, then merge
// each cell's survivors with a copy of the cell's merge RNG. This is the
// reference for the bit-identical degraded-merge guarantee.
func expectSurvivorResults(t *testing.T, cells []Cell, q Query, plan PhysicalPlan, drop map[journalKey]bool) []CellResult {
	t.Helper()
	master := rng.New(q.Seed)
	tasks, mergeRNGs, err := prepareTasks(cells, q, plan, master)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]*dataset.WeightedSet, len(cells))
	for _, tk := range tasks {
		if drop[journalKey{tk.cellIdx, tk.chunkIdx}] {
			continue
		}
		taskRNG := *tk.rng
		pr, err := core.PartialKMeans(tk.chunk, q.partialConfig(), &taskRNG)
		if err != nil {
			t.Fatal(err)
		}
		parts[tk.cellIdx] = append(parts[tk.cellIdx], pr.Centroids)
	}
	var out []CellResult
	for ci := range cells {
		if len(parts[ci]) == 0 {
			continue
		}
		mergeRNG := *mergeRNGs[ci]
		mr, err := core.MergeKMeans(parts[ci], q.mergeConfig(), &mergeRNG)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := metrics.MSE(cells[ci].Points, mr.Centroids)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, CellResult{Key: cells[ci].Key, Result: mr, PointMSE: pm})
	}
	return out
}

// TestDegradedDropsFailedPartition is the anytime contract's core
// acceptance: a permanently failing partition is quarantined, the query
// still answers, the answer is bit-identical to running partial/merge
// over only the surviving partitions, and the quality report names the
// dropped partition. The same query without WithDegradedResults fails
// loudly.
func TestDegradedDropsFailedPartition(t *testing.T) {
	cells, q, plan := governCells(t)
	// Invocation 3 = cell 0, chunk 2. No retry budget, so the single
	// failure is permanent.
	dropped := journalKey{cell: 0, chunk: 2}
	want := expectSurvivorResults(t, cells, q, plan, map[journalKey]bool{dropped: true})

	got, stats, err := NewExec(q, plan,
		WithFaultInjection(fault.ErrorNth(3)),
		WithDegradedResults(),
	).Execute(context.Background(), cells)
	if err != nil {
		t.Fatalf("degraded execution errored: %v", err)
	}
	assertSameResults(t, got, want)

	rep := stats.Degraded
	if rep == nil {
		t.Fatal("no DegradedResult despite a dropped partition")
	}
	if len(rep.DroppedChunks) != 1 {
		t.Fatalf("DroppedChunks = %v, want exactly one", rep.DroppedChunks)
	}
	ref := rep.DroppedChunks[0]
	if ref.Cell != cells[0].Key || ref.CellIndex != 0 || ref.Chunk != 2 || ref.Points != 150 {
		t.Fatalf("report names %+v, want cell %v chunk 2 with 150 points", ref, cells[0].Key)
	}
	if rep.PointsLost != 150 {
		t.Fatalf("PointsLost = %d, want 150", rep.PointsLost)
	}
	if len(rep.PartialCells) != 1 || rep.PartialCells[0] != cells[0].Key {
		t.Fatalf("PartialCells = %v, want [%v]", rep.PartialCells, cells[0].Key)
	}
	if len(rep.DroppedCells) != 0 {
		t.Fatalf("DroppedCells = %v, want none", rep.DroppedCells)
	}
	if rep.DeadlineExceeded || rep.Stalls != 0 {
		t.Fatalf("report claims deadline/stalls that never happened: %+v", rep)
	}
	// The partial cell's result must disclose its losses.
	for _, r := range got {
		if r.Key == cells[0].Key {
			if r.LostChunks != 1 || r.Partitions != 3 {
				t.Fatalf("cell 0 result: partitions=%d lost=%d, want 3 and 1", r.Partitions, r.LostChunks)
			}
		} else if r.LostChunks != 0 {
			t.Fatalf("intact cell %v reports %d lost chunks", r.Key, r.LostChunks)
		}
	}
	if stageCounter(stats, obs.StreamQuarantined, "partial-kmeans") != 1 {
		t.Fatal("failed chunk was not quarantined")
	}

	t.Run("without the option the same query fails loudly", func(t *testing.T) {
		_, _, err := NewExec(q, plan,
			WithFaultInjection(fault.ErrorNth(3)),
		).Execute(context.Background(), cells)
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("err = %v, want the injected failure", err)
		}
	})
}

// TestDegradedDropsWholeCell: when every partition of a cell fails, the
// cell is reported dropped and has no CellResult, while other cells
// still answer.
func TestDegradedDropsWholeCell(t *testing.T) {
	cells, q, plan := governCells(t)
	// A full-rate injector capped at 4 faults kills exactly cell 0's
	// chunks (invocations 1..4) and nothing after.
	got, stats, err := NewExec(q, plan,
		WithFaultInjection(fault.New(fault.Config{ErrorRate: 1, MaxFaults: 4})),
		WithDegradedResults(),
	).Execute(context.Background(), cells)
	if err != nil {
		t.Fatalf("degraded execution errored: %v", err)
	}
	want := expectSurvivorResults(t, cells, q, plan, map[journalKey]bool{
		{0, 0}: true, {0, 1}: true, {0, 2}: true, {0, 3}: true,
	})
	assertSameResults(t, got, want)
	rep := stats.Degraded
	if rep == nil || len(rep.DroppedCells) != 1 || rep.DroppedCells[0] != cells[0].Key {
		t.Fatalf("report = %+v, want cell %v dropped", rep, cells[0].Key)
	}
	if rep.PointsLost != 600 || len(rep.DroppedChunks) != 4 {
		t.Fatalf("report = %+v, want 4 chunks / 600 points lost", rep)
	}
	if len(got) != 1 || got[0].Key != cells[1].Key {
		t.Fatalf("results = %d cells, want only %v", len(got), cells[1].Key)
	}
}

// TestWatchdogRecoversStalledStage: a wedged partial operator (blocks
// until cancelled) is detected by the stall watchdog within the
// progress timeout, the attempt is cancelled and restarted, and the
// final results are bit-identical to a clean run.
func TestWatchdogRecoversStalledStage(t *testing.T) {
	cells, q, plan := governCells(t)
	want, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.StallNth(2)
	start := time.Now()
	got, stats, err := NewExec(q, plan,
		WithFaultInjection(inj),
		WithBudget(govern.Budget{ProgressTimeout: 80 * time.Millisecond}),
		WithRestarts(1),
	).Execute(context.Background(), cells)
	if err != nil {
		t.Fatalf("stalled-then-restarted execution errored: %v", err)
	}
	assertSameResults(t, got, want)
	if inj.Stalls() != 1 {
		t.Fatalf("injector stalled %d times, want 1", inj.Stalls())
	}
	if stats.Stalls != 1 {
		t.Fatalf("ExecStats.Stalls = %d, want 1", stats.Stalls)
	}
	if stats.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1 (the stall should consume one)", stats.Restarts)
	}
	// Detection must land near the progress timeout — generous bound for
	// race-detector scheduling, but far below "hung forever".
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall recovery took %v", elapsed)
	}
}

// TestStallFailsLoudlyWithoutBudget: with no restart budget and no
// degraded opt-in, a stall kills the plan with a typed error naming the
// wedged stage.
func TestStallFailsLoudlyWithoutBudget(t *testing.T) {
	cells, q, plan := governCells(t)
	_, _, err := NewExec(q, plan,
		WithFaultInjection(fault.StallNth(2)),
		WithBudget(govern.Budget{ProgressTimeout: 60 * time.Millisecond}),
	).Execute(context.Background(), cells)
	if !errors.Is(err, govern.ErrStalled) {
		t.Fatalf("err = %v, want a stall error", err)
	}
	var se *govern.StallError
	if !errors.As(err, &se) || se.Stage != "partial-kmeans" {
		t.Fatalf("err = %v, want StallError naming partial-kmeans", err)
	}
}

// TestStallDegradesWhenRestartsExhausted: a terminal stall under
// WithDegradedResults returns the survivors plus a report instead of
// the stall error.
func TestStallDegradesWhenRestartsExhausted(t *testing.T) {
	cells, q, plan := governCells(t)
	got, stats, err := NewExec(q, plan,
		WithFaultInjection(fault.StallNth(2)),
		WithBudget(govern.Budget{ProgressTimeout: 60 * time.Millisecond}),
		WithDegradedResults(),
	).Execute(context.Background(), cells)
	if err != nil {
		t.Fatalf("terminal stall should degrade, not error: %v", err)
	}
	rep := stats.Degraded
	if rep == nil {
		t.Fatal("no DegradedResult after a terminal stall")
	}
	if rep.Stalls != 1 || rep.DeadlineExceeded {
		t.Fatalf("report = %+v, want 1 stall and no deadline", rep)
	}
	// Only invocation 1 (cell 0, chunk 0) completed before the wedge;
	// everything else is lost.
	if rep.PointsLost != 600+450-150 {
		t.Fatalf("PointsLost = %d, want %d", rep.PointsLost, 600+450-150)
	}
	want := expectSurvivorResults(t, cells, q, plan, map[journalKey]bool{
		{0, 1}: true, {0, 2}: true, {0, 3}: true,
		{1, 0}: true, {1, 1}: true, {1, 2}: true,
	})
	assertSameResults(t, got, want)
}

// TestDeadlineDegrades: a run that cannot finish inside its deadline
// returns the work completed so far as a degraded answer; without the
// opt-in the same run fails with context.DeadlineExceeded.
func TestDeadlineDegrades(t *testing.T) {
	cells, q, plan := governCells(t)
	opts := func() []ExecOption {
		return []ExecOption{
			// Invocation 2 sleeps far past the deadline, so exactly one
			// chunk completes in time.
			WithFaultInjection(fault.DelayNth(2, 10*time.Second)),
			WithBudget(govern.Budget{Deadline: 250 * time.Millisecond}),
		}
	}
	got, stats, err := NewExec(q, plan, append(opts(), WithDegradedResults())...).
		Execute(context.Background(), cells)
	if err != nil {
		t.Fatalf("deadline should degrade, not error: %v", err)
	}
	rep := stats.Degraded
	if rep == nil || !rep.DeadlineExceeded {
		t.Fatalf("report = %+v, want DeadlineExceeded", rep)
	}
	if len(got) != 1 || got[0].Key != cells[0].Key || got[0].LostChunks != 3 {
		t.Fatalf("results = %+v, want only cell 0 from its first chunk", got)
	}
	want := expectSurvivorResults(t, cells, q, plan, map[journalKey]bool{
		{0, 1}: true, {0, 2}: true, {0, 3}: true,
		{1, 0}: true, {1, 1}: true, {1, 2}: true,
	})
	assertSameResults(t, got, want)

	t.Run("without the option the deadline fails loudly", func(t *testing.T) {
		_, _, err := NewExec(q, plan, opts()...).Execute(context.Background(), cells)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	})
}

// TestMemoryBudgetShrinksPlan: halving the memory budget demonstrably
// reduces chunk size and fan-out (visible in ExecStats.Admission and
// the operator stats), and the governed run stays deterministic for a
// fixed seed.
func TestMemoryBudgetShrinksPlan(t *testing.T) {
	cells := []Cell{
		{Key: grid.CellKey{Lat: 1, Lon: 1}, Points: engineCell(t, 600, 21)},
		{Key: grid.CellKey{Lat: 2, Lon: 2}, Points: engineCell(t, 450, 22)},
	}
	q := Query{K: 5, Restarts: 2, Seed: 77, Workers: 2}
	plan := PhysicalPlan{ChunkPoints: 300, PartialClones: 4, QueueCapacity: 4}

	_, plain, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}

	// dim=4 points cost pointBytes(4) bytes each; this budget holds half
	// a planned chunk, forcing both a smaller chunk and serialized fan-out.
	budget := int64(150) * pointBytes(4)
	run := func() ([]CellResult, *ExecStats) {
		res, stats, err := NewExec(q, plan, WithBudget(govern.Budget{MemoryBytes: budget})).
			Execute(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		return res, stats
	}
	got1, stats := run()

	adm := stats.Admission
	if adm == nil || !adm.Constrained() {
		t.Fatalf("Admission = %+v, want a constrained decision", adm)
	}
	if adm.ChunkPoints >= plan.ChunkPoints {
		t.Fatalf("chunk not shrunk: %d -> %d", plan.ChunkPoints, adm.ChunkPoints)
	}
	if adm.Clones >= plan.PartialClones {
		t.Fatalf("clone fan-out not shrunk: %d -> %d", plan.PartialClones, adm.Clones)
	}
	if adm.Workers >= q.Workers {
		t.Fatalf("restart fan-out not shrunk: %d -> %d", q.Workers, adm.Workers)
	}
	if stats.Chunks <= plain.Chunks {
		t.Fatalf("governed run produced %d chunks, plain %d; smaller chunks should mean more of them",
			stats.Chunks, plain.Chunks)
	}
	if clones, _ := stats.Obs.Snapshot().Gauge(obs.StreamClones, "partial-kmeans"); int(clones) != adm.Clones {
		t.Fatalf("partial stage ran %v clones, admission said %d", clones, adm.Clones)
	}

	got2, _ := run()
	assertSameResults(t, got2, got1)
}

// TestGovernedHealthyRunMatchesPlain: a run governed by generous
// budgets — deadline, progress timeout, memory, degraded opt-in — that
// never hits any of them must return exactly the ungoverned answer
// with a nil degradation report.
func TestGovernedHealthyRunMatchesPlain(t *testing.T) {
	cells, q, plan := governCells(t)
	want, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := NewExec(q, plan,
		WithBudget(govern.Budget{
			Deadline:        time.Minute,
			ProgressTimeout: 10 * time.Second,
			MemoryBytes:     1 << 30,
		}),
		WithDegradedResults(),
	).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	if stats.Degraded != nil {
		t.Fatalf("healthy run reported degradation: %v", stats.Degraded)
	}
	if stats.Stalls != 0 {
		t.Fatalf("healthy run counted %d stalls", stats.Stalls)
	}
	if stats.Admission == nil || stats.Admission.Constrained() {
		t.Fatalf("generous budget produced admission %+v", stats.Admission)
	}
}

// TestGovernorStallSoak repeatedly wedges different invocations and
// demands the watchdog recover every time — the stall-fault soak
// scripts/check.sh runs under the race detector.
func TestGovernorStallSoak(t *testing.T) {
	cells, q, plan := governCells(t)
	want, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, nth := range []int64{1, 3, 6} {
		nth := nth
		t.Run(fmt.Sprintf("stall-invocation-%d", nth), func(t *testing.T) {
			got, stats, err := NewExec(q, plan,
				WithFaultInjection(fault.StallNth(nth)),
				WithBudget(govern.Budget{ProgressTimeout: 80 * time.Millisecond}),
				WithRestarts(1),
			).Execute(context.Background(), cells)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, got, want)
			if stats.Stalls != 1 {
				t.Fatalf("Stalls = %d, want 1", stats.Stalls)
			}
		})
	}
}
