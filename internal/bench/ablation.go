package bench

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"streamkm/internal/baseline"
	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/distsim"
	"streamkm/internal/engine"
	"streamkm/internal/kmeans"
	"streamkm/internal/metrics"
	"streamkm/internal/obs"
	"streamkm/internal/rng"
	"streamkm/internal/vector"
)

// SpeedupRow is one point of the E5 parallelization experiment (§5.1,
// "speed-up of the processing if the partial k-means operators are
// parallelized").
type SpeedupRow struct {
	Clones  int
	Elapsed time.Duration
	// Speedup is serial elapsed / this elapsed.
	Speedup float64
	// MergeMSE verifies the result is clone-count-invariant.
	MergeMSE float64
}

// RunSpeedup clusters one N-point cell on the query engine with
// varying partial-operator clone counts. Splits p becomes a budget of
// ⌈N/p⌉ points per chunk, and the engine slices and seeds the cell as
// core.Cluster does, so MergeMSE is the serial run's for every count.
func RunSpeedup(ctx context.Context, w Workload, n int, splits int, clones []int) ([]SpeedupRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if len(clones) == 0 {
		return nil, fmt.Errorf("bench: no clone counts")
	}
	if splits <= 0 {
		return nil, fmt.Errorf("bench: split count must be positive, got %d", splits)
	}
	cell, err := w.cell(n, 0)
	if err != nil {
		return nil, err
	}
	cells := []engine.Cell{{Points: cell}}
	q := engine.Query{K: w.K, Restarts: w.Restarts, Seed: w.Seed}
	var rows []SpeedupRow
	var base time.Duration
	for _, c := range clones {
		plan := engine.PhysicalPlan{ChunkPoints: (n + splits - 1) / splits, PartialClones: c, QueueCapacity: max(2*c, 4)}
		res, stats, err := engine.Execute(ctx, cells, q, plan)
		if err != nil {
			return nil, fmt.Errorf("bench: speedup clones=%d: %w", c, err)
		}
		if base == 0 {
			base = stats.Elapsed
		}
		rows = append(rows, SpeedupRow{
			Clones:   c,
			Elapsed:  stats.Elapsed,
			Speedup:  float64(base) / float64(stats.Elapsed),
			MergeMSE: res[0].Result.MSE,
		})
	}
	return rows, nil
}

// FormatSpeedup renders the speed-up table.
func FormatSpeedup(rows []SpeedupRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %14s %10s %14s\n", "clones", "elapsed (ms)", "speedup", "merge MSE")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %14d %10.2f %14.2f\n",
			r.Clones, r.Elapsed.Milliseconds(), r.Speedup, r.MergeMSE)
	}
	return b.String()
}

// AblationRow is a generic (variant, quality, time) row used by the A1-A3
// ablations.
type AblationRow struct {
	Variant  string
	MergeMSE float64
	PointMSE float64
	Elapsed  time.Duration
}

// FormatAblation renders ablation rows.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%-22s %14s %14s %14s\n", "variant", "merge MSE", "point MSE", "elapsed (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %14.2f %14.2f %14d\n",
			r.Variant, r.MergeMSE, r.PointMSE, r.Elapsed.Milliseconds())
	}
	return b.String()
}

// RunMergeModeAblation compares collective vs incremental merging (A1,
// §3.3's information-theoretic argument for collective).
func RunMergeModeAblation(w Workload, n, splits int) ([]AblationRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, mode := range []core.MergeMode{core.MergeCollective, core.MergeIncremental} {
		row := AblationRow{Variant: mode.String()}
		for v := 0; v < w.Versions; v++ {
			cell, err := w.cell(n, v)
			if err != nil {
				return nil, err
			}
			res, err := core.Cluster(cell, core.Options{
				K: w.K, Restarts: w.Restarts, Splits: splits,
				MergeMode: mode, Seed: w.Seed + uint64(v),
			})
			if err != nil {
				return nil, fmt.Errorf("bench: merge mode %v: %w", mode, err)
			}
			row.MergeMSE += res.MergeMSE
			row.PointMSE += res.PointMSE
			row.Elapsed += res.Elapsed
		}
		row.MergeMSE /= float64(w.Versions)
		row.PointMSE /= float64(w.Versions)
		row.Elapsed /= time.Duration(w.Versions)
		rows = append(rows, row)
	}
	return rows, nil
}

// RunMergeSeedingAblation compares the paper's heaviest-weight merge
// seeding against random and k-means++ seeding (A2).
func RunMergeSeedingAblation(w Workload, n, splits int) ([]AblationRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	seeders := []kmeans.Seeder{kmeans.HeaviestSeeder{}, kmeans.RandomSeeder{}, kmeans.PlusPlusSeeder{}}
	var rows []AblationRow
	for _, s := range seeders {
		row := AblationRow{Variant: s.Name()}
		for v := 0; v < w.Versions; v++ {
			cell, err := w.cell(n, v)
			if err != nil {
				return nil, err
			}
			res, err := core.Cluster(cell, core.Options{
				K: w.K, Restarts: w.Restarts, Splits: splits,
				MergeSeeder: s, Seed: w.Seed + uint64(v),
			})
			if err != nil {
				return nil, fmt.Errorf("bench: merge seeding %s: %w", s.Name(), err)
			}
			row.MergeMSE += res.MergeMSE
			row.PointMSE += res.PointMSE
			row.Elapsed += res.Elapsed
		}
		row.MergeMSE /= float64(w.Versions)
		row.PointMSE /= float64(w.Versions)
		row.Elapsed /= time.Duration(w.Versions)
		rows = append(rows, row)
	}
	return rows, nil
}

// RunPartialSeedingAblation compares the paper's random partial-stage
// seeding against k-means++ (A8, the partial-stage mirror of A2).
func RunPartialSeedingAblation(w Workload, n, splits int) ([]AblationRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	seeders := []kmeans.Seeder{kmeans.RandomSeeder{}, kmeans.PlusPlusSeeder{}}
	var rows []AblationRow
	for _, s := range seeders {
		row := AblationRow{Variant: s.Name()}
		for v := 0; v < w.Versions; v++ {
			cell, err := w.cell(n, v)
			if err != nil {
				return nil, err
			}
			res, err := core.Cluster(cell, core.Options{
				K: w.K, Restarts: w.Restarts, Splits: splits,
				PartialSeeder: s, Seed: w.Seed + uint64(v),
			})
			if err != nil {
				return nil, fmt.Errorf("bench: partial seeding %s: %w", s.Name(), err)
			}
			row.MergeMSE += res.MergeMSE
			row.PointMSE += res.PointMSE
			row.Elapsed += res.Elapsed
		}
		row.MergeMSE /= float64(w.Versions)
		row.PointMSE /= float64(w.Versions)
		row.Elapsed /= time.Duration(w.Versions)
		rows = append(rows, row)
	}
	return rows, nil
}

// RunSlicingAblation compares the slicing strategies of §6's future work
// (A3): random (the paper's tests), salami, and spatial.
func RunSlicingAblation(w Workload, n, splits int) ([]AblationRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	strategies := []dataset.SplitStrategy{dataset.SplitRandom, dataset.SplitSalami, dataset.SplitSpatial}
	var rows []AblationRow
	for _, strat := range strategies {
		row := AblationRow{Variant: strat.String()}
		for v := 0; v < w.Versions; v++ {
			cell, err := w.cell(n, v)
			if err != nil {
				return nil, err
			}
			res, err := core.Cluster(cell, core.Options{
				K: w.K, Restarts: w.Restarts, Splits: splits,
				Strategy: strat, Seed: w.Seed + uint64(v),
			})
			if err != nil {
				return nil, fmt.Errorf("bench: slicing %v: %w", strat, err)
			}
			row.MergeMSE += res.MergeMSE
			row.PointMSE += res.PointMSE
			row.Elapsed += res.Elapsed
		}
		row.MergeMSE /= float64(w.Versions)
		row.PointMSE /= float64(w.Versions)
		row.Elapsed /= time.Duration(w.Versions)
		rows = append(rows, row)
	}
	return rows, nil
}

// RestartRow is one point of the A10 restart sweep: the paper fixes
// R = 10 seed sets without justification; this measures the
// quality/time trade directly.
type RestartRow struct {
	Restarts int
	MergeMSE float64
	PointMSE float64
	Elapsed  time.Duration
}

// RunRestartSweep clusters cells at several restart counts, averaging
// over the workload's dataset versions.
func RunRestartSweep(w Workload, n, splits int, restarts []int) ([]RestartRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if len(restarts) == 0 {
		return nil, fmt.Errorf("bench: no restart counts")
	}
	var rows []RestartRow
	for _, r := range restarts {
		if r <= 0 {
			return nil, fmt.Errorf("bench: non-positive restart count %d", r)
		}
		row := RestartRow{Restarts: r}
		for v := 0; v < w.Versions; v++ {
			cell, err := w.cell(n, v)
			if err != nil {
				return nil, err
			}
			res, err := core.Cluster(cell, core.Options{
				K: w.K, Restarts: r, Splits: splits, Seed: w.Seed + uint64(v),
			})
			if err != nil {
				return nil, fmt.Errorf("bench: restarts=%d: %w", r, err)
			}
			row.MergeMSE += res.MergeMSE
			row.PointMSE += res.PointMSE
			row.Elapsed += res.Elapsed
		}
		row.MergeMSE /= float64(w.Versions)
		row.PointMSE /= float64(w.Versions)
		row.Elapsed /= time.Duration(w.Versions)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatRestarts renders the A10 table.
func FormatRestarts(rows []RestartRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %14s %14s\n", "restarts", "merge MSE", "point MSE", "elapsed (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %14.2f %14.2f %14d\n",
			r.Restarts, r.MergeMSE, r.PointMSE, r.Elapsed.Milliseconds())
	}
	return b.String()
}

// AgreementRow is one line of the A9 partition-agreement experiment:
// how similarly two algorithms carve the same cell, beyond MSE.
type AgreementRow struct {
	Pair string
	// ARI is the adjusted Rand index between the two nearest-centroid
	// labelings (1 = identical partitions, ~0 = chance).
	ARI float64
}

// RunAgreement computes pairwise adjusted Rand indices between the
// partitions induced by serial k-means, 5-split, and 10-split
// partial/merge on one cell.
func RunAgreement(w Workload, n int) ([]AgreementRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	cell, err := w.cell(n, 0)
	if err != nil {
		return nil, err
	}
	label := func(centroids []vector.Vector) []int {
		out := make([]int, cell.Len())
		for i, p := range cell.Points() {
			out[i], _ = vector.NearestIndex(p, centroids)
		}
		return out
	}
	serial, err := baseline.Serial(cell, baseline.SerialConfig{K: w.K, Restarts: w.Restarts, Seed: w.Seed})
	if err != nil {
		return nil, err
	}
	labels := map[string][]int{"serial": label(serial.Centroids)}
	names := []string{"serial"}
	for _, splits := range []int{5, 10} {
		if n/splits < w.K {
			continue
		}
		res, err := core.Cluster(cell, core.Options{
			K: w.K, Restarts: w.Restarts, Splits: splits, Seed: w.Seed,
		})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%dsplit", splits)
		labels[name] = label(res.Centroids)
		names = append(names, name)
	}
	var rows []AgreementRow
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			ari, err := metrics.AdjustedRandIndex(labels[names[i]], labels[names[j]])
			if err != nil {
				return nil, err
			}
			rows = append(rows, AgreementRow{Pair: names[i] + " vs " + names[j], ARI: ari})
		}
	}
	return rows, nil
}

// FormatAgreement renders the A9 table.
func FormatAgreement(rows []AgreementRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s\n", "pair", "ARI")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %10.3f\n", r.Pair, r.ARI)
	}
	return b.String()
}

// ChunkSizeRow is one point of the A7 chunk-size sensitivity sweep —
// §3.3's open question ("which is the best choice of k depending on the
// partition size") approached from the other side: fixed k, varying
// partition size.
type ChunkSizeRow struct {
	ChunkPoints int
	Partitions  int
	MergeMSE    float64
	PointMSE    float64
	Elapsed     time.Duration
}

// RunChunkSizeSweep clusters one N-point cell at several memory budgets.
func RunChunkSizeSweep(w Workload, n int, chunkSizes []int) ([]ChunkSizeRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if len(chunkSizes) == 0 {
		return nil, fmt.Errorf("bench: no chunk sizes")
	}
	cell, err := w.cell(n, 0)
	if err != nil {
		return nil, err
	}
	var rows []ChunkSizeRow
	for _, cp := range chunkSizes {
		if cp < w.K {
			continue
		}
		res, err := core.Cluster(cell, core.Options{
			K: w.K, Restarts: w.Restarts, ChunkPoints: cp, Seed: w.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: chunk size %d: %w", cp, err)
		}
		rows = append(rows, ChunkSizeRow{
			ChunkPoints: cp,
			Partitions:  res.Partitions,
			MergeMSE:    res.MergeMSE,
			PointMSE:    res.PointMSE,
			Elapsed:     res.Elapsed,
		})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("bench: every chunk size was below k=%d", w.K)
	}
	return rows, nil
}

// FormatChunkSizes renders the A7 table.
func FormatChunkSizes(rows []ChunkSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %14s %14s %14s\n",
		"chunk (pts)", "chunks", "merge MSE", "point MSE", "elapsed (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d %10d %14.2f %14.2f %14d\n",
			r.ChunkPoints, r.Partitions, r.MergeMSE, r.PointMSE, r.Elapsed.Milliseconds())
	}
	return b.String()
}

// DistRow is one point of E7: the measured cell scheduled onto a
// modeled network of PCs (the paper's §5.1 environment, per DESIGN.md).
type DistRow struct {
	Machines int
	Makespan time.Duration
	Speedup  float64
	Transfer time.Duration
	BytesMB  float64
	MergeMSE float64
}

// RunDistributedScaleup regenerates the near-linear scale-up claim
// (§3.4 option 1). It runs the cell once through the engine — one
// partial clone, ⌈N/splits⌉-point chunks — and reads each chunk's
// compute from its partial-stage span and the coordinator's merge time
// from the merge span. Every machine count then schedules those same
// jobs over a modeled gigabit LAN (distsim.Schedule): a chunk ships
// dim·8 bytes per point out and (dim+1)·8 bytes per summary point back,
// and speed-up(m) = makespan(1)/makespan(m).
func RunDistributedScaleup(w Workload, n, splits int, machines []int) ([]DistRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if len(machines) == 0 {
		return nil, fmt.Errorf("bench: no machine counts")
	}
	if splits <= 0 {
		return nil, fmt.Errorf("bench: splits must be positive, got %d", splits)
	}
	cell, err := w.cell(n, 0)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	q := engine.Query{K: w.K, Restarts: w.Restarts, Seed: w.Seed}
	plan := engine.PhysicalPlan{ChunkPoints: (n + splits - 1) / splits, PartialClones: 1, QueueCapacity: 4}
	results, stats, err := engine.NewExec(q, plan, engine.WithObserver(reg)).
		Execute(context.Background(), []engine.Cell{{Points: cell}})
	if err != nil {
		return nil, fmt.Errorf("bench: distributed cell: %w", err)
	}
	merge := results[0].Result
	jobs := make([]distsim.Job, stats.Chunks)
	var mergeTime time.Duration
	for _, s := range reg.Spans() {
		if s.Label("chunk") == "" {
			mergeTime += s.Duration() // the cell's one merge span
			continue
		}
		c, err := strconv.Atoi(s.Label("chunk"))
		if err != nil {
			return nil, fmt.Errorf("bench: partial span %q: %w", s.Item, err)
		}
		jobs[c] = distsim.Job{
			Compute: s.Duration(),
			// dataset.Split gives the first N mod p chunks one more
			// point; the merge's inputs are spread over the chunks alike.
			OutBytes: int64(evenShare(n, len(jobs), c)) * int64(w.Dim) * 8,
			InBytes:  int64(evenShare(merge.Inputs, len(jobs), c)) * int64(w.Dim+1) * 8,
		}
	}
	const latency, bandwidth = 100 * time.Microsecond, 125e6 // gigabit LAN
	makespan := func(m int) (time.Duration, distsim.Timeline) {
		tl := distsim.Schedule(m, latency, bandwidth, jobs)
		return tl.AllArrived + mergeTime, tl
	}
	one, _ := makespan(1)
	rows := make([]DistRow, 0, len(machines))
	for _, m := range machines {
		if m <= 0 {
			return nil, fmt.Errorf("bench: machine count must be positive, got %d", m)
		}
		span, tl := makespan(m)
		rows = append(rows, DistRow{
			Machines: m,
			Makespan: span,
			Speedup:  float64(one) / float64(span),
			Transfer: tl.TransferTime,
			BytesMB:  float64(tl.BytesMoved) / (1 << 20),
			MergeMSE: merge.MSE,
		})
	}
	return rows, nil
}

// evenShare is part i of total split into p parts whose sizes differ by
// at most one, the larger parts first.
func evenShare(total, p, i int) int {
	if i < total%p {
		return total/p + 1
	}
	return total / p
}

// FormatDistributed renders the E7 table.
func FormatDistributed(rows []DistRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %14s %9s %14s %10s %12s\n",
		"machines", "makespan (ms)", "speedup", "transfer (ms)", "MB moved", "merge MSE")
	for _, r := range rows {
		// Makespans carry 0.1 ms so the speed-up column visibly follows
		// from them.
		fmt.Fprintf(&b, "%-9d %14.1f %9.2f %14d %10.2f %12.2f\n",
			r.Machines, float64(r.Makespan)/float64(time.Millisecond), r.Speedup,
			r.Transfer.Milliseconds(), r.BytesMB, r.MergeMSE)
	}
	return b.String()
}

// PruningRow is one cell version's A6 measurement: the partial k-means
// of the cell's first chunk, with the distance evaluations the bounded
// sweep spent against the (TotalIterations+R)·n·K that scanning every
// centroid in every sweep would spend.
type PruningRow struct {
	Version       int
	Points        int
	Iterations    int
	DistanceEvals int64
	FullScanEvals int64
	Elapsed       time.Duration
}

// RunAccelerationAblation measures §2's "improvements for step 2" as
// the Lloyd sweep applies them (A6). For each cell version it slices
// the cell as core.Cluster does and runs the first chunk's partial
// k-means — ⌈N/splits⌉ points, K centroids, R restarts, the chunk's own
// random stream — counting distance evaluations.
func RunAccelerationAblation(w Workload, n, splits int) ([]PruningRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	rows := make([]PruningRow, 0, w.Versions)
	for v := 0; v < w.Versions; v++ {
		cell, err := w.cell(n, v)
		if err != nil {
			return nil, err
		}
		sliced, err := core.SliceCell(cell, splits, 0, dataset.SplitRandom, rng.New(w.Seed+uint64(v)))
		if err != nil {
			return nil, err
		}
		chunk := dataset.Unweighted(sliced.Chunks[0])
		start := time.Now()
		rr, err := kmeans.RunRestarts(chunk, kmeans.Config{K: w.K}, w.Restarts, sliced.ChunkRNGs[0])
		if err != nil {
			return nil, fmt.Errorf("bench: pruning: %w", err)
		}
		rows = append(rows, PruningRow{
			Version:       v,
			Points:        chunk.Len(),
			Iterations:    rr.TotalIterations,
			DistanceEvals: rr.DistanceEvals,
			FullScanEvals: int64(rr.TotalIterations+w.Restarts) * int64(chunk.Len()) * int64(w.K),
			Elapsed:       time.Since(start),
		})
	}
	return rows, nil
}

// FormatPruning renders A6 rows.
func FormatPruning(rows []PruningRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# A6: bounded Lloyd sweep vs full scans (first chunk's partial k-means per version)\n")
	fmt.Fprintf(&b, "%-8s %7s %11s %13s %16s %10s %13s\n",
		"version", "points", "iterations", "dist evals", "full-scan evals", "reduction", "elapsed (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %7d %11d %13d %16d %9.2fx %13d\n",
			r.Version, r.Points, r.Iterations, r.DistanceEvals, r.FullScanEvals,
			float64(r.FullScanEvals)/float64(r.DistanceEvals), r.Elapsed.Milliseconds())
	}
	return b.String()
}

// RunECVQAblation compares fixed-k partial reduction against the ECVQ
// extension (§3.3 Remarks) at several rate penalties (A5). The variant
// label records the average surviving per-partition k.
func RunECVQAblation(w Workload, n, splits int, lambdas []float64) ([]AblationRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	cell, err := w.cell(n, 0)
	if err != nil {
		return nil, err
	}
	fixed, err := core.Cluster(cell, core.Options{
		K: w.K, Restarts: w.Restarts, Splits: splits, Seed: w.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: ecvq ablation fixed-k: %w", err)
	}
	rows := []AblationRow{{
		Variant:  fmt.Sprintf("fixed-k(%d)", w.K),
		MergeMSE: fixed.MergeMSE,
		PointMSE: fixed.PointMSE,
		Elapsed:  fixed.Elapsed,
	}}
	for _, lambda := range lambdas {
		res, err := core.Cluster(cell, core.Options{
			K: w.K, Restarts: w.Restarts, Splits: splits, Seed: w.Seed,
			Summarizer: core.SummarizerECVQ, ECVQMaxK: 2 * w.K, ECVQLambda: lambda,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: ecvq ablation lambda=%g: %w", lambda, err)
		}
		rows = append(rows, AblationRow{
			Variant:  fmt.Sprintf("ecvq(λ=%g)", lambda),
			MergeMSE: res.MergeMSE,
			PointMSE: res.PointMSE,
			Elapsed:  res.Elapsed,
		})
	}
	return rows, nil
}

// BaselineRow is one line of the A4 positioning table.
type BaselineRow struct {
	Algorithm string
	PointMSE  float64
	Elapsed   time.Duration
}

// RunBaselines compares partial/merge against serial, BIRCH, a
// STREAM/LOCALSEARCH-style one-pass clusterer, and distributed Lloyd on
// the same cell (A4). Quality is point MSE for every algorithm so the
// comparison is apples to apples.
func RunBaselines(ctx context.Context, w Workload, n, splits int) ([]BaselineRow, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	cell, err := w.cell(n, 0)
	if err != nil {
		return nil, err
	}
	chunk := (n + splits - 1) / splits
	var rows []BaselineRow

	pm, err := core.Cluster(cell, core.Options{
		K: w.K, Restarts: w.Restarts, Splits: splits, Seed: w.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: partial/merge: %w", err)
	}
	rows = append(rows, BaselineRow{
		Algorithm: fmt.Sprintf("partial/merge(%d)", splits),
		PointMSE:  pm.PointMSE,
		Elapsed:   pm.Elapsed,
	})

	serial, err := baseline.Serial(cell, baseline.SerialConfig{K: w.K, Restarts: w.Restarts, Seed: w.Seed})
	if err != nil {
		return nil, fmt.Errorf("bench: serial: %w", err)
	}
	rows = append(rows, BaselineRow{Algorithm: "serial", PointMSE: serial.MSE, Elapsed: serial.Elapsed})

	birch, err := baseline.BIRCH(cell, baseline.BIRCHConfig{
		K: w.K, MaxLeafEntries: 8 * w.K, Seed: w.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: birch: %w", err)
	}
	rows = append(rows, BaselineRow{Algorithm: "birch", PointMSE: birch.MSE, Elapsed: birch.Elapsed})

	sls, err := baseline.StreamLS(cell, baseline.StreamLSConfig{
		K: w.K, ChunkPoints: chunk, Seed: w.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: streamls: %w", err)
	}
	rows = append(rows, BaselineRow{Algorithm: "streamls", PointMSE: sls.MSE, Elapsed: sls.Elapsed})

	mc, err := baseline.MethodC(ctx, cell, baseline.SerialConfig{K: w.K, Seed: w.Seed}, splits)
	if err != nil {
		return nil, fmt.Errorf("bench: methodC: %w", err)
	}
	rows = append(rows, BaselineRow{Algorithm: "methodC", PointMSE: mc.MSE, Elapsed: mc.Elapsed})

	mb, err := baseline.MiniBatch(cell, baseline.MiniBatchConfig{
		K: w.K, Iterations: 300, Seed: w.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: minibatch: %w", err)
	}
	rows = append(rows, BaselineRow{Algorithm: "minibatch", PointMSE: mb.MSE, Elapsed: mb.Elapsed})

	return rows, nil
}

// FormatBaselines renders the A4 table.
func FormatBaselines(rows []BaselineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %14s %14s\n", "algorithm", "point MSE", "elapsed (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %14.2f %14d\n", r.Algorithm, r.PointMSE, r.Elapsed.Milliseconds())
	}
	return b.String()
}
