// distributed shows the parallelization story of §3.4: the same cell is
// clustered with 1, 2, 4 and 8 cloned partial operators, demonstrating
// (a) the speed-up from cloning the expensive operator and (b) that the
// result is bit-identical regardless of clone count, because chunk RNGs
// are derived before dispatch and the collective merge is order-
// insensitive. It then contrasts the Fig. 2 baselines on the same cell.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"streamkm/internal/baseline"
	"streamkm/internal/dataset"
	"streamkm/internal/engine"
)

func main() {
	spec := dataset.DefaultCellSpec()
	spec.Clusters = 30
	cell, err := dataset.GenerateCell(spec, 40000, 13)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cell: %d points, dim %d\n\n", cell.Len(), cell.Dim())

	// Partial/merge with cloned partial operators. Clones are
	// goroutines: wall-clock speed-up tracks min(clones, cores), so on
	// a single-core machine expect ~1.0x while the result stays
	// bit-identical.
	fmt.Printf("machine has %d CPU(s); speed-up saturates at min(clones, CPUs)\n\n", runtime.NumCPU())
	fmt.Println("partial/merge k-means, 8 chunks, varying clone count:")
	fmt.Printf("%-8s %12s %10s %12s\n", "clones", "elapsed", "speedup", "merge MSE")
	var base float64
	cells := []engine.Cell{{Points: cell}}
	q := engine.Query{K: 40, Restarts: 5, Seed: 21}
	for _, clones := range []int{1, 2, 4, 8} {
		plan := engine.PhysicalPlan{ChunkPoints: cell.Len() / 8, PartialClones: clones, QueueCapacity: 2 * clones}
		res, stats, err := engine.Execute(context.Background(), cells, q, plan)
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = float64(stats.Elapsed)
		}
		fmt.Printf("%-8d %12v %9.2fx %12.2f\n",
			clones, stats.Elapsed.Round(1e6), base/float64(stats.Elapsed), res[0].Result.MSE)
	}

	// The Fig. 2 baselines on the same cell.
	fmt.Println("\nFig. 2 baselines on the same cell:")
	cfg := baseline.SerialConfig{K: 40, Restarts: 5, Seed: 21}
	serial, err := baseline.Serial(cell, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  serial:   %12v  MSE %.2f\n", serial.Elapsed.Round(1e6), serial.MSE)

	methodB, err := baseline.MethodB(context.Background(), cell, cfg, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  method B: %12v  MSE %.2f  (restarts in parallel)\n",
		methodB.Elapsed.Round(1e6), methodB.MSE)

	methodC, err := baseline.MethodC(context.Background(), cell, baseline.SerialConfig{K: 40, Seed: 21}, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  method C: %12v  MSE %.2f  (%d messages between master and 4 slaves)\n",
		methodC.Elapsed.Round(1e6), methodC.MSE, methodC.Messages)

	fmt.Println("\nnote: methods A-C still require a full point set per worker in RAM;")
	fmt.Println("partial/merge bounds per-operator memory by the chunk size instead.")
}
