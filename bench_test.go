// Benchmarks regenerating the paper's exhibits as testing.B targets, one
// per table/figure (DESIGN.md's per-experiment index maps exhibits to
// these). The full-resolution sweep lives in cmd/benchtables; these
// benches run the same code paths at bench-friendly sizes and report
// clustering quality through b.ReportMetric so `go test -bench` output
// carries both time and MSE columns.
package streamkm_test

import (
	"context"
	"sync"
	"testing"

	"streamkm/internal/baseline"
	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/engine"
	"streamkm/internal/kmeans"
)

const (
	benchK        = 40 // the paper's k
	benchRestarts = 3  // scaled from the paper's 10 to keep benches quick
)

var (
	cellCache   = map[int]*dataset.Set{}
	cellCacheMu sync.Mutex
)

// benchCell returns a cached N-point 6-D cell with the paper's workload
// characteristics.
func benchCell(b *testing.B, n int) *dataset.Set {
	b.Helper()
	cellCacheMu.Lock()
	defer cellCacheMu.Unlock()
	if s, ok := cellCache[n]; ok {
		return s
	}
	spec := dataset.DefaultCellSpec()
	s, err := dataset.GenerateCell(spec, n, uint64(n)^2004)
	if err != nil {
		b.Fatal(err)
	}
	cellCache[n] = s
	return s
}

func benchSerial(b *testing.B, n int) {
	cell := benchCell(b, n)
	var mse float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := baseline.Serial(cell, baseline.SerialConfig{
			K: benchK, Restarts: benchRestarts, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		mse = rep.MSE
	}
	b.ReportMetric(mse, "mse")
}

func benchSplit(b *testing.B, n, splits int) {
	cell := benchCell(b, n)
	var mergeMSE, pointMSE float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Cluster(cell, core.Options{
			K: benchK, Restarts: benchRestarts, Splits: splits, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		mergeMSE, pointMSE = res.MergeMSE, res.PointMSE
	}
	b.ReportMetric(mergeMSE, "mergeMSE")
	b.ReportMetric(pointMSE, "pointMSE")
}

// BenchmarkTable2 regenerates Table 2's rows: serial vs 5-split vs
// 10-split across the N sweep (sizes scaled for benchmarking; run
// cmd/benchtables -full for the paper's exact sweep).
func BenchmarkTable2(b *testing.B) {
	for _, n := range []int{2500, 12500} {
		n := n
		b.Run("serial/N="+itoa(n), func(b *testing.B) { benchSerial(b, n) })
		b.Run("5split/N="+itoa(n), func(b *testing.B) { benchSplit(b, n, 5) })
		b.Run("10split/N="+itoa(n), func(b *testing.B) { benchSplit(b, n, 10) })
	}
}

// BenchmarkFigure6 regenerates Figure 6's overall-time series: the same
// algorithms as Table 2, timed end to end across the size axis.
func BenchmarkFigure6(b *testing.B) {
	for _, n := range []int{250, 2500, 12500} {
		n := n
		b.Run("serial/N="+itoa(n), func(b *testing.B) { benchSerial(b, n) })
		if n/5 >= benchK {
			b.Run("5split/N="+itoa(n), func(b *testing.B) { benchSplit(b, n, 5) })
		}
		if n/10 >= benchK {
			b.Run("10split/N="+itoa(n), func(b *testing.B) { benchSplit(b, n, 10) })
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7's quality series; MSE is the
// reported metric, time is incidental.
func BenchmarkFigure7(b *testing.B) {
	for _, n := range []int{2500, 12500} {
		n := n
		b.Run("serial/N="+itoa(n), func(b *testing.B) { benchSerial(b, n) })
		b.Run("5split/N="+itoa(n), func(b *testing.B) { benchSplit(b, n, 5) })
		b.Run("10split/N="+itoa(n), func(b *testing.B) { benchSplit(b, n, 10) })
	}
}

// BenchmarkFigure8 regenerates Figure 8: the partial stage alone,
// 5-split vs 10-split.
func BenchmarkFigure8(b *testing.B) {
	for _, n := range []int{2500, 12500} {
		for _, splits := range []int{5, 10} {
			n, splits := n, splits
			b.Run(itoa(splits)+"split/N="+itoa(n), func(b *testing.B) {
				cell := benchCell(b, n)
				var partialMS float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.Cluster(cell, core.Options{
						K: benchK, Restarts: benchRestarts, Splits: splits, Seed: uint64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
					partialMS = float64(res.PartialTime.Milliseconds())
				}
				b.ReportMetric(partialMS, "partial-ms")
			})
		}
	}
}

// BenchmarkSpeedup regenerates E5: cloned partial operators over a fixed
// cell on the query engine. On a multi-core machine ns/op falls with
// clones up to the core count; the mergeMSE metric stays constant,
// proving clone-invariance.
func BenchmarkSpeedup(b *testing.B) {
	const n, splits = 12500, 10
	q := engine.Query{K: benchK, Restarts: benchRestarts, Seed: 1}
	for _, clones := range []int{1, 2, 4, 8} {
		clones := clones
		b.Run("clones="+itoa(clones), func(b *testing.B) {
			cells := []engine.Cell{{Points: benchCell(b, n)}}
			plan := engine.PhysicalPlan{ChunkPoints: n / splits, PartialClones: clones, QueueCapacity: max(2*clones, 4)}
			var mse float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _, err := engine.Execute(context.Background(), cells, q, plan)
				if err != nil {
					b.Fatal(err)
				}
				mse = res[0].Result.MSE
			}
			b.ReportMetric(mse, "mergeMSE")
		})
	}
}

// BenchmarkMergeMode regenerates A1: collective vs incremental merging.
func BenchmarkMergeMode(b *testing.B) {
	for _, mode := range []core.MergeMode{core.MergeCollective, core.MergeIncremental} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			cell := benchCell(b, 5000)
			var mse float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Cluster(cell, core.Options{
					K: benchK, Restarts: benchRestarts, Splits: 5,
					MergeMode: mode, Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				mse = res.PointMSE
			}
			b.ReportMetric(mse, "pointMSE")
		})
	}
}

// BenchmarkMergeSeeding regenerates A2: heaviest-weight (the paper's
// choice) vs random vs kmeans++ merge seeding.
func BenchmarkMergeSeeding(b *testing.B) {
	for _, seeder := range []kmeans.Seeder{kmeans.HeaviestSeeder{}, kmeans.RandomSeeder{}, kmeans.PlusPlusSeeder{}} {
		seeder := seeder
		b.Run(seeder.Name(), func(b *testing.B) {
			cell := benchCell(b, 5000)
			var mse float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Cluster(cell, core.Options{
					K: benchK, Restarts: benchRestarts, Splits: 5,
					MergeSeeder: seeder, Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				mse = res.PointMSE
			}
			b.ReportMetric(mse, "pointMSE")
		})
	}
}

// BenchmarkSlicing regenerates A3: the slicing strategies of §6.
func BenchmarkSlicing(b *testing.B) {
	for _, strat := range []dataset.SplitStrategy{dataset.SplitRandom, dataset.SplitSalami, dataset.SplitSpatial} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			cell := benchCell(b, 5000)
			var mse float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Cluster(cell, core.Options{
					K: benchK, Restarts: benchRestarts, Splits: 5,
					Strategy: strat, Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				mse = res.PointMSE
			}
			b.ReportMetric(mse, "pointMSE")
		})
	}
}

// BenchmarkBaselines regenerates A4: every algorithm on the same cell,
// pointMSE reported for an apples-to-apples comparison.
func BenchmarkBaselines(b *testing.B) {
	const n = 5000
	b.Run("partial-merge-5split", func(b *testing.B) { benchSplit(b, n, 5) })
	b.Run("serial", func(b *testing.B) { benchSerial(b, n) })
	b.Run("birch", func(b *testing.B) {
		cell := benchCell(b, n)
		var mse float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := baseline.BIRCH(cell, baseline.BIRCHConfig{
				K: benchK, MaxLeafEntries: 8 * benchK, Seed: uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			mse = rep.MSE
		}
		b.ReportMetric(mse, "pointMSE")
	})
	b.Run("streamls", func(b *testing.B) {
		cell := benchCell(b, n)
		var mse float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := baseline.StreamLS(cell, baseline.StreamLSConfig{
				K: benchK, ChunkPoints: 1000, Seed: uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			mse = rep.MSE
		}
		b.ReportMetric(mse, "pointMSE")
	})
	b.Run("methodC", func(b *testing.B) {
		cell := benchCell(b, n)
		var mse float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := baseline.MethodC(context.Background(), cell,
				baseline.SerialConfig{K: benchK, Seed: uint64(i)}, 4)
			if err != nil {
				b.Fatal(err)
			}
			mse = rep.MSE
		}
		b.ReportMetric(mse, "pointMSE")
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
