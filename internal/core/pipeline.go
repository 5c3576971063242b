package core

import (
	"errors"
	"fmt"
	"time"

	"streamkm/internal/dataset"
	"streamkm/internal/kmeans"
	"streamkm/internal/metrics"
	"streamkm/internal/rng"
	"streamkm/internal/vector"
)

// Options configures a full partial/merge run over one grid cell.
type Options struct {
	// K is the number of clusters (paper: 40).
	K int
	// Restarts is the seed sets tried per partition and, for the serial
	// baseline path, per cell (paper: 10).
	Restarts int
	// Splits is the number of partitions p (paper: 5 or 10). Exactly one
	// of Splits and ChunkPoints must be positive.
	Splits int
	// ChunkPoints, when positive, sizes partitions by a memory budget
	// (max points per chunk) instead of a fixed count — the engine's
	// adaptive mode (§3.2: partitions sized to available RAM).
	ChunkPoints int
	// Strategy selects the slicing strategy (paper tests: random).
	Strategy dataset.SplitStrategy
	// MergeMode selects collective (paper) or incremental merging.
	MergeMode MergeMode
	// MergeSeeder overrides merge initialization (nil = heaviest-weight).
	MergeSeeder kmeans.Seeder
	// PartialSeeder overrides partial-stage initialization (nil =
	// random, the paper's choice).
	PartialSeeder kmeans.Seeder
	// Epsilon is the ΔMSE convergence threshold (0 = paper's 1e-9).
	Epsilon float64
	// MaxIterations caps Lloyd iterations per run (0 = default).
	MaxIterations int
	// Seed derives all randomness for the run; equal seeds reproduce
	// results exactly.
	Seed uint64
	// Workers, when >= 2, fans each partial operator's Restarts across
	// that many goroutines. Results stay bit-identical to serial
	// execution for any value.
	Workers int
	// Summarizer names the chunk-summarizer operator ("" or "kmeans" =
	// the paper's partial k-means; "ecvq", "coreset" select the
	// adaptive-k and coreset-tree operators).
	Summarizer string
	// SeedMethod names the seeding strategy applied to both the
	// k-means partial stage and the merge stage (kmeans.SeederByName;
	// "" keeps the historic defaults: random partial, heaviest merge).
	// Explicit PartialSeeder/MergeSeeder values take precedence.
	SeedMethod string
	// MergeSolver selects the merge-stage iteration kernel
	// (kmeans.SolverNames; "" = full Lloyd). "minibatch" runs the merge
	// as sampled gradient steps — cheaper on large pools, and the
	// kernel behind the windowed snapshot index's warm refines.
	MergeSolver string
	// CoresetSize is the coreset operator's output size m per chunk
	// (0 = 10*K).
	CoresetSize int
	// ECVQMaxK and ECVQLambda parameterize the ecvq operator
	// (0 = 2*K and no rate penalty respectively).
	ECVQMaxK   int
	ECVQLambda float64
}

// Validate checks the options for structural errors — exported so the
// facade can fail fast before building pipelines or summarizers.
func (o Options) Validate() error {
	if o.K <= 0 {
		return fmt.Errorf("core: K must be positive, got %d", o.K)
	}
	if o.Restarts <= 0 {
		return fmt.Errorf("core: Restarts must be positive, got %d", o.Restarts)
	}
	if (o.Splits > 0) == (o.ChunkPoints > 0) {
		return errors.New("core: exactly one of Splits and ChunkPoints must be positive")
	}
	if _, err := kmeans.SeederByName(o.SeedMethod); err != nil {
		return err
	}
	if err := kmeans.ValidateSolver(o.MergeSolver); err != nil {
		return err
	}
	return nil
}

// PartialConfig derives the partial-stage configuration from the
// options — the one place the mapping is written down, shared by
// Cluster and the streamkm facade.
func (o Options) PartialConfig() PartialConfig {
	return PartialConfig{
		K:             o.K,
		Restarts:      o.Restarts,
		Epsilon:       o.Epsilon,
		MaxIterations: o.MaxIterations,
		Seeder:        o.PartialSeeder,
		Workers:       o.Workers,
	}
}

// MergeConfig derives the merge-stage configuration from the options
// (a nil Seeder lets MergeKMeans default to the heaviest-point seeder).
// SeedMethod, when set and not overridden by MergeSeeder, selects the
// merge seeding strategy too — with the coreset summarizer the merge is
// the only k-means stage, so this is where -seed-method=kmeans++ bites.
func (o Options) MergeConfig() MergeConfig {
	seeder := o.MergeSeeder
	if seeder == nil && o.SeedMethod != "" {
		if s, err := kmeans.SeederByName(o.SeedMethod); err == nil {
			seeder = s
		}
	}
	return MergeConfig{
		K:             o.K,
		Epsilon:       o.Epsilon,
		MaxIterations: o.MaxIterations,
		Seeder:        seeder,
		Mode:          o.MergeMode,
		Solver:        o.MergeSolver,
	}
}

// SummarizerOptions maps the pipeline options onto the summarizer
// factory's knobs — the one place that mapping is written down, shared
// with the engine and the streamkm facade.
func (o Options) SummarizerOptions() SummarizerOptions {
	return SummarizerOptions{
		Partial:     o.PartialConfig(),
		SeedMethod:  o.SeedMethod,
		CoresetSize: o.CoresetSize,
		ECVQ:        ECVQPartialConfig{MaxK: o.ECVQMaxK, Lambda: o.ECVQLambda},
	}
}

// NewSummarizer resolves the options' chunk-summarizer operator.
func (o Options) NewSummarizer() (Summarizer, error) {
	return SummarizerFor(o.Summarizer, o.SummarizerOptions())
}

// Result is the outcome of a full partial/merge run.
type Result struct {
	// Centroids are the final k cell centroids.
	Centroids []vector.Vector
	// Weights are the data weights merged into each centroid.
	Weights []float64
	// MergeMSE is the paper's E_pm-based MSE reported for partial/merge
	// runs in Table 2 (weighted distance of partial centroids to final
	// centroids).
	MergeMSE float64
	// PointMSE is the mean squared distance of the original points to
	// the final centroids — the apples-to-apples quality number we add
	// alongside the paper's metric.
	PointMSE float64
	// Partitions is the number of chunks p actually used.
	Partitions int
	// PartialTime sums wall-clock time across partial steps ("t C0-Ci"
	// in Table 2).
	PartialTime time.Duration
	// MergeTime is the merge step's wall-clock time ("t merge").
	MergeTime time.Duration
	// Elapsed is end-to-end wall-clock time ("overall t").
	Elapsed time.Duration
	// PartialIterations and MergeIterations sum Lloyd iterations.
	PartialIterations int
	MergeIterations   int
}

// Cluster runs partial/merge k-means over one cell with all partial
// steps executed serially on the calling goroutine — the configuration
// the paper's Table 2 measures ("even if all partial k-means steps are
// run serially on one machine").
func Cluster(points *dataset.Set, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	summ, err := opts.NewSummarizer()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cell, err := SliceCell(points, opts.Splits, opts.ChunkPoints, opts.Strategy, rng.New(opts.Seed))
	if err != nil {
		return nil, err
	}
	res := &Result{Partitions: len(cell.Chunks)}
	parts := make([]*dataset.WeightedSet, len(cell.Chunks))
	for i, chunk := range cell.Chunks {
		pr, err := summ.Summarize(chunk, cell.ChunkRNGs[i])
		if err != nil {
			return nil, fmt.Errorf("core: partition %d: %w", i, err)
		}
		parts[i] = pr.Centroids
		res.PartialTime += pr.Elapsed
		res.PartialIterations += pr.Iterations
	}
	mr, err := MergeKMeans(parts, opts.MergeConfig(), cell.MergeRNG)
	if err != nil {
		return nil, err
	}
	res.Centroids, res.Weights, res.MergeMSE = mr.Centroids, mr.Weights, mr.MSE
	res.MergeTime, res.MergeIterations = mr.Elapsed, mr.Iterations
	if res.PointMSE, err = metrics.MSE(points, mr.Centroids); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// SlicedCell is one cell cut into partitions, with the random stream
// of every partial step and of the merge derived before any of them
// runs, so the answer cannot depend on which operator clone, process
// or worker handles which chunk (§3.3–3.4).
type SlicedCell struct {
	Chunks    []*dataset.Set
	ChunkRNGs []*rng.RNG
	MergeRNG  *rng.RNG
}

// SliceCell is the one slicing and RNG-derivation rule every
// partial/merge entry point shares: the slicing draws from r first
// (SplitRandom shuffles with it; salami and spatial slicing draw
// nothing), then chunk i takes the i-th r.Split() and the merge the
// next one. splits > 0 cuts exactly that many chunks; otherwise
// chunkPoints caps each chunk's size. Cluster applies the rule to
// rng.New(Seed); the engine applies it cell after cell on one master
// stream, so a one-cell engine run equals Cluster bit for bit.
func SliceCell(points *dataset.Set, splits, chunkPoints int, strategy dataset.SplitStrategy, r *rng.RNG) (*SlicedCell, error) {
	var chunks []*dataset.Set
	var err error
	if splits > 0 {
		chunks, err = dataset.Split(points, splits, strategy, r)
	} else {
		chunks, err = dataset.SplitByBudget(points, chunkPoints, strategy, r)
	}
	if err != nil {
		return nil, err
	}
	cell := &SlicedCell{Chunks: chunks, ChunkRNGs: make([]*rng.RNG, len(chunks))}
	for i := range chunks {
		cell.ChunkRNGs[i] = r.Split()
	}
	cell.MergeRNG = r.Split()
	return cell, nil
}
