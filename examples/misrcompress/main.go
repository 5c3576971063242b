// misrcompress reproduces the paper's motivating application end to end:
// simulate a MISR-like instrument sweeping the earth in swaths (Fig. 1),
// bucket the measurements into 1°x1° grid cells, cluster each cell with
// partial/merge k-means through the query engine, and compress each cell
// into a multivariate non-equi-depth histogram (§1). Finally a range
// query is answered from the compressed representation alone.
//
//	go run ./examples/misrcompress
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"streamkm/internal/engine"
	"streamkm/internal/grid"
	"streamkm/internal/vector"
)

func main() {
	// 1. Simulate the instrument: 16 orbits cover the globe in stripes.
	spec := grid.DefaultSwathSpec()
	spec.Orbits = 16
	spec.PointsPerOrbit = 40000
	model := grid.GeoGradientModel{Dim: spec.Dim, Noise: 0.8, Scale: 10}
	measurements, err := grid.SimulateSwaths(spec, model, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d measurements over %d orbits\n", len(measurements), spec.Orbits)

	// 2. Bucket into grid cells; keep the densest ones for the demo.
	cellMap, err := grid.Bucketize(measurements)
	if err != nil {
		log.Fatal(err)
	}
	sets, err := grid.BucketizeToSets(cellMap)
	if err != nil {
		log.Fatal(err)
	}
	var cells []engine.Cell
	for key, set := range sets {
		// Enough points to seed k=12 with headroom; the swath geometry
		// concentrates points near the orbit's turnaround latitudes.
		if set.Len() >= 60 {
			cells = append(cells, engine.Cell{Key: key, Points: set})
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Points.Len() != cells[j].Points.Len() {
			return cells[i].Points.Len() > cells[j].Points.Len()
		}
		return cells[i].Key.String() < cells[j].Key.String()
	})
	if len(cells) > 6 {
		cells = cells[:6]
	}
	if len(cells) == 0 {
		log.Fatal("no sufficiently dense cells; increase -per-orbit density")
	}
	fmt.Printf("clustering the %d densest cells\n", len(cells))

	// 3. Cluster every cell through the engine: the optimizer sizes
	// chunks for a deliberately tight 12 KB operator budget (so cells
	// actually get partitioned) and clones partial operators across 4
	// workers.
	q := engine.Query{K: 12, Restarts: 5, Seed: 11, Compress: true}
	results, plan, stats, err := engine.Run(context.Background(), cells, q, engine.Resources{
		MemoryBytes: 12 << 10,
		Workers:     4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.Explain())

	// 4. The engine's compress stage already built a histogram per cell;
	// answer a range query from the compressed form alone.
	fmt.Printf("\n%-10s %7s %7s %12s %14s\n", "cell", "points", "chunks", "compression", "est. mass[0]>0")
	for i, r := range results {
		h := r.Histogram
		n := cells[i].Points.Len()
		// Range query: how many measurements have attribute 0 above the
		// field midpoint? Estimated from buckets only.
		lo := vector.New(h.Dim())
		hi := vector.New(h.Dim())
		for d := 0; d < h.Dim(); d++ {
			lo[d], hi[d] = -1e9, 1e9
		}
		lo[0] = 0
		est, err := h.EstimateRange(lo, hi)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %7d %7d %11.1fx %14.0f\n",
			r.Key, n, r.Partitions, h.CompressionRatio(n), est)
	}
	fmt.Printf("\npipeline processed %d cells / %d chunks in %v\n",
		stats.Cells, stats.Chunks, stats.Elapsed)
	for _, line := range stats.Operators() {
		fmt.Println(" ", line)
	}
}
