// Command benchtables regenerates every table and figure of the paper's
// evaluation (§5) plus the ablations listed in DESIGN.md:
//
//	-exp table2          Table 2 (5-split vs 10-split vs serial)
//	-exp figure6/7/8     overall time / minimum MSE / partial time vs N
//	-exp speedup         E5: partial-operator clones 1..8 (in-process)
//	-exp memory          E6: peak operator state vs N
//	-exp distributed     E7: simulated network-of-PCs scale-up
//	-exp merge-mode      A1: collective vs incremental merge
//	-exp merge-seeding   A2: heaviest vs random vs kmeans++ merge seeds
//	-exp slicing         A3: random vs salami vs spatial slicing
//	-exp baselines       A4: vs serial, BIRCH, STREAM, methodC, mini-batch
//	-exp ecvq            A5: fixed-k vs ECVQ partial reduction
//	-exp accel           A6: bounded Lloyd sweep vs full scans
//	-exp chunk-size      A7: quality/time vs memory budget
//	-exp partial-seeding A8: random vs kmeans++ chunk seeds
//	-exp agreement       A9: adjusted Rand index between algorithms
//	-exp restarts        A10: R-sweep (seed sets per partition)
//	-exp all             the paper exhibits plus A1-A5
//
// -json emits the rows machine-readably. By default a laptop-scale
// workload runs in seconds; -full switches to the paper's exact
// parameters (N up to 75 000, k = 40, R = 10, 5 versions), which takes
// considerably longer.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"streamkm/internal/bench"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment to run (see package comment)")
		full   = flag.Bool("full", false, "use the paper's full workload instead of the quick one")
		n      = flag.Int("n", 0, "override the cell size for single-cell experiments (0 = workload max)")
		splits = flag.Int("splits", 5, "split count for single-cell experiments")
		asJSON = flag.Bool("json", false, "emit rows as JSON instead of formatted tables (not for -exp all)")
	)
	flag.Parse()
	w := bench.QuickWorkload()
	if *full {
		w = bench.PaperWorkload()
	}
	size := *n
	if size == 0 {
		size = w.Sizes[len(w.Sizes)-1]
	}
	if err := run(*exp, w, size, *splits, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(exp string, w bench.Workload, n, splits int, asJSON ...bool) error {
	jsonOut := len(asJSON) > 0 && asJSON[0]
	emit := func(title string, rows any, text string) error {
		if !jsonOut {
			if title != "" {
				fmt.Println(title)
			}
			fmt.Print(text)
			return nil
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	ctx := context.Background()
	needTable2 := map[string]bool{"table2": true, "figure6": true, "figure7": true, "figure8": true, "all": true}
	var rows []bench.Table2Row
	if needTable2[exp] {
		var err error
		rows, err = bench.RunTable2(w, paperishCases(w))
		if err != nil {
			return err
		}
	}
	switch exp {
	case "table2":
		return emit("# Table 2: serial vs partial/merge k-means", rows, bench.FormatTable2(rows))
	case "figure6":
		f := bench.Figure6(rows)
		return emit("", f, bench.FormatFigure("Figure 6: overall execution time, serial vs partial/merge", f)+bench.ASCIIPlot("Figure 6: overall execution time, serial vs partial/merge", f, 64, 16))
	case "figure7":
		f := bench.Figure7(rows)
		return emit("", f, bench.FormatFigure("Figure 7: minimum MSE, serial vs partial/merge", f)+bench.ASCIIPlot("Figure 7: minimum MSE, serial vs partial/merge", f, 64, 16))
	case "figure8":
		f := bench.Figure8(rows)
		return emit("", f, bench.FormatFigure("Figure 8: partial k-means time, 5-split vs 10-split", f)+bench.ASCIIPlot("Figure 8: partial k-means time, 5-split vs 10-split", f, 64, 16))
	case "speedup":
		rows, err := speedupRows(ctx, w, n, splits)
		if err != nil {
			return err
		}
		return emit("# E5: speed-up with cloned partial operators", rows, bench.FormatSpeedup(rows))
	case "merge-mode":
		ab, err := bench.RunMergeModeAblation(w, n, splits)
		if err != nil {
			return err
		}
		return emit("", ab, bench.FormatAblation("A1: collective vs incremental merge", ab))
	case "merge-seeding":
		ab, err := bench.RunMergeSeedingAblation(w, n, splits)
		if err != nil {
			return err
		}
		return emit("", ab, bench.FormatAblation("A2: merge seeding strategies", ab))
	case "partial-seeding":
		ab, err := bench.RunPartialSeedingAblation(w, n, splits)
		if err != nil {
			return err
		}
		return emit("", ab, bench.FormatAblation("A8: partial-stage seeding strategies", ab))
	case "slicing":
		ab, err := bench.RunSlicingAblation(w, n, splits)
		if err != nil {
			return err
		}
		return emit("", ab, bench.FormatAblation("A3: slicing strategies", ab))
	case "restarts":
		rows, err := bench.RunRestartSweep(w, n, splits, []int{1, 2, 5, 10, 20})
		if err != nil {
			return err
		}
		return emit("# A10: restart-count sweep (seed sets per partition)", rows, bench.FormatRestarts(rows))
	case "agreement":
		rows, err := bench.RunAgreement(w, n)
		if err != nil {
			return err
		}
		return emit("# A9: partition agreement (adjusted Rand index)", rows, bench.FormatAgreement(rows))
	case "chunk-size":
		sizes := []int{2 * w.K, 5 * w.K, 10 * w.K, 25 * w.K, n / 2, n}
		rows, err := bench.RunChunkSizeSweep(w, n, sizes)
		if err != nil {
			return err
		}
		return emit("# A7: chunk-size sensitivity (fixed k, varying memory budget)", rows, bench.FormatChunkSizes(rows))
	case "distributed":
		rows, err := bench.RunDistributedScaleup(w, n, splits, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		return emit("# E7: simulated network-of-PCs scale-up (modeled gigabit LAN)", rows, bench.FormatDistributed(rows))
	case "memory":
		rows, err := bench.RunMemoryProfile(w, []int{5, 10})
		if err != nil {
			return err
		}
		return emit("# E6: peak operator state (the paper's memory-bottleneck claim)", rows, bench.FormatMemory(rows))
	case "accel":
		ab, err := bench.RunAccelerationAblation(w, n, splits)
		if err != nil {
			return err
		}
		return emit("", ab, bench.FormatPruning(ab))
	case "ecvq":
		ab, err := bench.RunECVQAblation(w, n, splits, []float64{0.1, 1, 10})
		if err != nil {
			return err
		}
		return emit("", ab, bench.FormatAblation("A5: fixed-k vs ECVQ partial reduction", ab))
	case "baselines":
		rows, err := bench.RunBaselines(ctx, w, n, splits)
		if err != nil {
			return err
		}
		return emit("# A4: partial/merge vs prior systems", rows, bench.FormatBaselines(rows))
	case "all":
		fmt.Println("# Table 2: serial vs partial/merge k-means")
		fmt.Print(bench.FormatTable2(rows))
		fmt.Println()
		fmt.Print(bench.FormatFigure("Figure 6: overall execution time", bench.Figure6(rows)))
		fmt.Println()
		fmt.Print(bench.FormatFigure("Figure 7: minimum MSE", bench.Figure7(rows)))
		fmt.Println()
		fmt.Print(bench.FormatFigure("Figure 8: partial k-means time", bench.Figure8(rows)))
		fmt.Println()
		if rows, err := speedupRows(ctx, w, n, splits); err != nil {
			return err
		} else {
			fmt.Println("# E5: speed-up with cloned partial operators")
			fmt.Print(bench.FormatSpeedup(rows))
		}
		for _, a := range []struct {
			title string
			f     func() ([]bench.AblationRow, error)
		}{
			{"A1: collective vs incremental merge", func() ([]bench.AblationRow, error) { return bench.RunMergeModeAblation(w, n, splits) }},
			{"A2: merge seeding strategies", func() ([]bench.AblationRow, error) { return bench.RunMergeSeedingAblation(w, n, splits) }},
			{"A3: slicing strategies", func() ([]bench.AblationRow, error) { return bench.RunSlicingAblation(w, n, splits) }},
			{"A5: fixed-k vs ECVQ partial reduction", func() ([]bench.AblationRow, error) {
				return bench.RunECVQAblation(w, n, splits, []float64{0.1, 1, 10})
			}},
		} {
			fmt.Println()
			ab, err := a.f()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatAblation(a.title, ab))
		}
		fmt.Println()
		base, err := bench.RunBaselines(ctx, w, n, splits)
		if err != nil {
			return err
		}
		fmt.Println("# A4: partial/merge vs prior systems")
		fmt.Print(bench.FormatBaselines(base))
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// paperishCases maps the paper's {serial, 5split, 10split} onto the
// workload: for the quick workload the split counts shrink with the
// smaller cells so chunks can still seed k centroids.
func paperishCases(w bench.Workload) []bench.Case {
	maxN := w.Sizes[len(w.Sizes)-1]
	if maxN >= 12500 {
		return bench.PaperCases()
	}
	return []bench.Case{
		{Name: "serial", Splits: 0},
		{Name: "2split", Splits: 2},
		{Name: "4split", Splits: 4},
	}
}

func speedupRows(ctx context.Context, w bench.Workload, n, splits int) ([]bench.SpeedupRow, error) {
	clones := []int{1, 2, 4, 8}
	if splits < 8 {
		clones = []int{1, 2, splits}
	}
	return bench.RunSpeedup(ctx, w, n, splits, clones)
}
