package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/grid"
	"streamkm/internal/obs"
)

func engineCell(t testing.TB, n int, seed uint64) *dataset.Set {
	t.Helper()
	spec := dataset.DefaultCellSpec()
	spec.Clusters = 5
	spec.Dim = 4
	spec.NoiseFrac = 0
	spec.Separation = 30
	spec.Spread = 0.5
	s, err := dataset.GenerateCell(spec, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOptimizeValidation(t *testing.T) {
	q := Query{K: 4, Restarts: 2}
	res := Resources{MemoryBytes: 1 << 20, Workers: 4}
	if _, err := Optimize(Query{Restarts: 2}, []int{100}, 4, res); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, err := Optimize(Query{K: 4}, []int{100}, 4, res); err == nil {
		t.Fatal("Restarts=0 should error")
	}
	if _, err := Optimize(q, nil, 4, res); err == nil {
		t.Fatal("no cells should error")
	}
	if _, err := Optimize(q, []int{100}, 0, res); err == nil {
		t.Fatal("dim=0 should error")
	}
	if _, err := Optimize(q, []int{100}, 4, Resources{MemoryBytes: 0}); err == nil {
		t.Fatal("no memory should error")
	}
	if _, err := Optimize(q, []int{0}, 4, res); err == nil {
		t.Fatal("empty cell should error")
	}
	// budget below the minimum viable chunk
	if _, err := Optimize(Query{K: 100, Restarts: 1}, []int{10000}, 4, Resources{MemoryBytes: 100, Workers: 1}); err == nil {
		t.Fatal("tiny budget should error")
	}
}

func TestOptimizeChunkSizing(t *testing.T) {
	q := Query{K: 10, Restarts: 2}
	dim := 6
	// Budget for exactly 1000 points of dim 6.
	budget := int64(1000) * pointBytes(dim)
	plan, err := Optimize(q, []int{50000}, dim, Resources{MemoryBytes: budget, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ChunkPoints != 1000 {
		t.Fatalf("ChunkPoints = %d, want 1000", plan.ChunkPoints)
	}
	// 50000/1000 = 50 chunks >> 4 workers → 4 clones.
	if plan.PartialClones != 4 {
		t.Fatalf("PartialClones = %d, want 4", plan.PartialClones)
	}
	if !strings.Contains(plan.Explain(), "chunk size: 1000") {
		t.Fatalf("Explain missing chunk size:\n%s", plan.Explain())
	}
}

func TestOptimizeCapsAtLargestCell(t *testing.T) {
	q := Query{K: 5, Restarts: 1}
	plan, err := Optimize(q, []int{200, 300}, 4, Resources{MemoryBytes: 1 << 30, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ChunkPoints != 300 {
		t.Fatalf("ChunkPoints = %d, want largest cell 300", plan.ChunkPoints)
	}
	// only 2 chunks expected → clones capped at 2
	if plan.PartialClones != 2 {
		t.Fatalf("PartialClones = %d, want 2", plan.PartialClones)
	}
}

func TestOptimizeDefaultsWorkers(t *testing.T) {
	plan, err := Optimize(Query{K: 5, Restarts: 1}, []int{10000}, 4,
		Resources{MemoryBytes: 1 << 20, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if plan.PartialClones != 1 {
		t.Fatalf("PartialClones = %d, want 1", plan.PartialClones)
	}
}

func TestExecuteSingleCell(t *testing.T) {
	cell := engineCell(t, 1000, 1)
	cells := []Cell{{Key: grid.CellKey{Lat: 10, Lon: 20}, Points: cell}}
	q := Query{K: 10, Restarts: 2, Seed: 5}
	plan := PhysicalPlan{ChunkPoints: 250, PartialClones: 3, QueueCapacity: 4}
	results, stats, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	if r.Key != (grid.CellKey{Lat: 10, Lon: 20}) {
		t.Fatalf("key = %v", r.Key)
	}
	if r.Partitions != 4 {
		t.Fatalf("Partitions = %d, want 1000/250 = 4", r.Partitions)
	}
	if len(r.Result.Centroids) != 10 {
		t.Fatalf("centroids = %d", len(r.Result.Centroids))
	}
	if r.PointMSE <= 0 || r.PointMSE > 5 {
		t.Fatalf("PointMSE = %g", r.PointMSE)
	}
	var w float64
	for _, x := range r.Result.Weights {
		w += x
	}
	if math.Abs(w-1000) > 1e-6 {
		t.Fatalf("merged weight %g != N", w)
	}
	if stats.Cells != 1 || stats.Chunks != 4 {
		t.Fatalf("stats: %+v", stats)
	}
	if got := stageCounter(stats, obs.StreamItemsIn, "partial-kmeans"); got != 4 {
		t.Fatalf("partial operator consumed %d items, want 4", got)
	}
}

func TestExecuteMultipleCellsPipelined(t *testing.T) {
	cells := []Cell{
		{Key: grid.CellKey{Lat: 0, Lon: 0}, Points: engineCell(t, 600, 2)},
		{Key: grid.CellKey{Lat: 0, Lon: 1}, Points: engineCell(t, 900, 3)},
		{Key: grid.CellKey{Lat: 1, Lon: 0}, Points: engineCell(t, 300, 4)},
	}
	q := Query{K: 8, Restarts: 2, Seed: 9}
	plan := PhysicalPlan{ChunkPoints: 300, PartialClones: 4, QueueCapacity: 8}
	results, stats, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	// chunks: 600/300=2, 900/300=3, 300/300=1 → 6
	if stats.Chunks != 6 {
		t.Fatalf("Chunks = %d, want 6", stats.Chunks)
	}
	for i, r := range results {
		if r.Key != cells[i].Key {
			t.Fatalf("result %d key %v, want %v", i, r.Key, cells[i].Key)
		}
		if len(r.Result.Centroids) != 8 {
			t.Fatalf("cell %v: %d centroids", r.Key, len(r.Result.Centroids))
		}
	}
}

func TestExecuteDeterministicAcrossClones(t *testing.T) {
	cells := []Cell{{Key: grid.CellKey{}, Points: engineCell(t, 800, 7)}}
	q := Query{K: 6, Restarts: 2, Seed: 42}
	a, _, err := Execute(context.Background(), cells, q,
		PhysicalPlan{ChunkPoints: 200, PartialClones: 1, QueueCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Execute(context.Background(), cells, q,
		PhysicalPlan{ChunkPoints: 200, PartialClones: 4, QueueCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a[0].Result.MSE-b[0].Result.MSE) > 1e-12 {
		t.Fatalf("clone count changed the result: %g vs %g", a[0].Result.MSE, b[0].Result.MSE)
	}
}

func TestExecuteValidation(t *testing.T) {
	q := Query{K: 4, Restarts: 1}
	plan := PhysicalPlan{ChunkPoints: 100, PartialClones: 1}
	if _, _, err := Execute(context.Background(), nil, q, plan); err == nil {
		t.Fatal("no cells should error")
	}
	empty := []Cell{{Points: dataset.MustNewSet(4)}}
	if _, _, err := Execute(context.Background(), empty, q, plan); err == nil {
		t.Fatal("empty cell should error")
	}
	cells := []Cell{{Points: engineCell(t, 100, 1)}}
	if _, _, err := Execute(context.Background(), cells, q, PhysicalPlan{ChunkPoints: 0}); err == nil {
		t.Fatal("chunk=0 should error")
	}
	if _, _, err := Execute(context.Background(), cells, Query{K: 0, Restarts: 1}, plan); err == nil {
		t.Fatal("bad query should error")
	}
}

func TestExecuteCancellation(t *testing.T) {
	cells := []Cell{{Points: engineCell(t, 5000, 8)}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Execute(ctx, cells, Query{K: 10, Restarts: 10, Seed: 1},
		PhysicalPlan{ChunkPoints: 500, PartialClones: 2, QueueCapacity: 2})
	if err == nil {
		t.Fatal("cancelled context should abort")
	}
}

func TestRunEndToEnd(t *testing.T) {
	cells := []Cell{
		{Key: grid.CellKey{Lat: 5, Lon: 5}, Points: engineCell(t, 700, 11)},
		{Key: grid.CellKey{Lat: 5, Lon: 6}, Points: engineCell(t, 400, 12)},
	}
	// k well above the 5 latent blobs, as in the paper's k=40 setup;
	// k ≈ blob count risks a heaviest-seeding local minimum.
	q := Query{K: 12, Restarts: 2, Seed: 13, MergeMode: core.MergeCollective}
	budget := int64(250) * pointBytes(4)
	results, plan, stats, err := Run(context.Background(), cells, q,
		Resources{MemoryBytes: budget, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ChunkPoints != 250 {
		t.Fatalf("plan chunk = %d", plan.ChunkPoints)
	}
	if len(results) != 2 || stats.Cells != 2 {
		t.Fatalf("results = %d, stats = %+v", len(results), stats)
	}
	for _, r := range results {
		if r.PointMSE > 5 {
			t.Fatalf("cell %v PointMSE = %g", r.Key, r.PointMSE)
		}
	}
}

func TestExecuteCompressStage(t *testing.T) {
	cell := engineCell(t, 500, 71)
	cells := []Cell{{Key: grid.CellKey{Lat: 9, Lon: 9}, Points: cell}}
	q := Query{K: 6, Restarts: 2, Seed: 3, Compress: true}
	plan := PhysicalPlan{ChunkPoints: 250, PartialClones: 2, QueueCapacity: 4}
	results, stats, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	h := results[0].Histogram
	if h == nil {
		t.Fatal("Compress did not attach a histogram")
	}
	if h.Total() != 500 {
		t.Fatalf("histogram mass %g != 500", h.Total())
	}
	// the compress operator appears in the spans
	found := false
	for _, s := range stats.Obs.Spans() {
		if s.Op == "compress" {
			found = true
		}
	}
	if !found {
		t.Fatal("no compress span recorded")
	}
	// without Compress, no histogram
	q.Compress = false
	results, _, err = Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Histogram != nil {
		t.Fatal("histogram attached without Compress")
	}
}

func TestRunMixedDimsRejected(t *testing.T) {
	a := engineCell(t, 100, 1)
	b := dataset.MustNewSet(2)
	for i := 0; i < 100; i++ {
		if err := b.Add([]float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, _, err := Run(context.Background(), []Cell{{Points: a}, {Points: b}},
		Query{K: 3, Restarts: 1}, Resources{MemoryBytes: 1 << 20, Workers: 1})
	if err == nil {
		t.Fatal("mixed dims should error")
	}
}
