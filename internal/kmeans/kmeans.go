// Package kmeans implements the weighted Lloyd k-means iteration that
// underlies every clustering variant in this repository: the paper's
// serial k-means (unit weights), the partial k-means run per chunk, and
// the merge k-means over weighted centroids. The algorithm follows §2 of
// the paper: distance calculation, centroid recalculation, and
// convergence when the MSE improvement between consecutive iterations
// drops to (MSE(n-1) - MSE(n)) <= epsilon, with epsilon = 1e-9 in the
// paper's experiments.
package kmeans

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"streamkm/internal/dataset"
	"streamkm/internal/rng"
	"streamkm/internal/vector"
)

// DefaultEpsilon is the paper's convergence threshold (§2 step 4).
const DefaultEpsilon = 1e-9

// DefaultMaxIterations bounds a single Lloyd run. The paper does not
// state a cap; we add one so adversarial inputs cannot loop forever.
const DefaultMaxIterations = 500

// EmptyClusterPolicy selects what to do when a cluster loses all its
// points during an iteration (possible when seeds coincide or data is
// degenerate).
type EmptyClusterPolicy int

const (
	// ReseedFarthest moves an empty centroid onto the point currently
	// farthest from its assigned centroid — the standard repair that
	// keeps exactly k non-empty clusters.
	ReseedFarthest EmptyClusterPolicy = iota
	// DropEmpty keeps the stale centroid in place (it may re-acquire
	// points later); the result can effectively have fewer clusters.
	DropEmpty
)

// Config parameterizes one k-means run.
type Config struct {
	// K is the number of clusters; the paper fixes K = 40.
	K int
	// Epsilon is the ΔMSE convergence threshold; 0 means DefaultEpsilon.
	Epsilon float64
	// MaxIterations caps Lloyd iterations; 0 means DefaultMaxIterations.
	MaxIterations int
	// Seeder chooses initial centroids; nil means RandomSeeder.
	Seeder Seeder
	// EmptyPolicy selects the empty-cluster repair.
	EmptyPolicy EmptyClusterPolicy
	// Parallel, when >= 2, fans RunRestarts' independent runs across
	// that many worker goroutines (§3.4's option 2: running the restarts
	// of one partial k-means concurrently). Seed sets are pre-derived
	// from the caller's RNG serially, so every run and the best-of-R
	// winner are bit-identical to serial execution for any worker count.
	// Ignored by single runs.
	Parallel int
	// Solver selects the iteration kernel: "" or SolverLloyd runs full
	// Lloyd passes over every point; SolverMiniBatch runs the
	// mini-batch kernel (Sculley, WWW 2010, generalized to weighted
	// points): BatchSize points sampled per step from a dedicated
	// sampling stream, with only the sampled centers moved under
	// per-center learning rates. The mini-batch kernel ignores
	// EmptyPolicy (an unsampled center simply stays put).
	Solver string
	// BatchSize is the mini-batch sample size per gradient step
	// (0 = 10*K). Mini-batch solver only.
	BatchSize int
	// SampleSeed seeds the mini-batch sampling stream. Run and
	// RunRestarts overwrite it with values drawn from the caller's RNG
	// after seeding — keeping "Lloyd consumes no randomness" true for
	// the full-Lloyd solvers — while RunFromCentroids uses it as given,
	// so a warm-started refine is a pure function of its inputs.
	SampleSeed uint64
	// FocusRows, when non-empty, is processed as one deterministic
	// first batch before sampling begins — the warm-refine hook
	// guaranteeing that freshly changed rows influence the answer even
	// if the sampled batches miss them. Mini-batch solver only.
	FocusRows []int
	// InitialCounts pre-loads the per-center learning-rate mass
	// (length K). A warm-started refine passes the previous answer's
	// Weights so new data moves centroids proportionally to its mass
	// instead of yanking them onto itself. Mini-batch solver only; nil
	// starts every center at zero mass.
	InitialCounts []float64
}

// Solver names for Config.Solver / MergeConfig.Solver.
const (
	// SolverLloyd is the full Lloyd iteration (the default).
	SolverLloyd = "lloyd"
	// SolverMiniBatch is the sampled gradient kernel.
	SolverMiniBatch = "minibatch"
)

// SolverNames lists the selectable iteration kernels.
func SolverNames() []string { return []string{SolverLloyd, SolverMiniBatch} }

// ValidateSolver checks a solver name; "" selects the Lloyd default.
func ValidateSolver(name string) error {
	switch name {
	case "", SolverLloyd, SolverMiniBatch:
		return nil
	default:
		return fmt.Errorf("kmeans: unknown solver %q (have %s)", name, strings.Join(SolverNames(), ", "))
	}
}

func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = DefaultEpsilon
	}
	// The mini-batch solver budgets gradient batches from the input
	// size (see runMiniBatch); Lloyd's 500-sweep cap would be a ~50x
	// oversized sample budget.
	if c.MaxIterations == 0 && c.Solver != SolverMiniBatch {
		c.MaxIterations = DefaultMaxIterations
	}
	if c.Seeder == nil {
		c.Seeder = RandomSeeder{}
	}
	return c
}

func (c Config) validate() error {
	if c.K <= 0 {
		return fmt.Errorf("kmeans: K must be positive, got %d", c.K)
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("kmeans: Epsilon must be non-negative, got %g", c.Epsilon)
	}
	if c.MaxIterations < 0 {
		return fmt.Errorf("kmeans: MaxIterations must be non-negative, got %d", c.MaxIterations)
	}
	if c.Parallel < 0 {
		return fmt.Errorf("kmeans: Parallel must be non-negative, got %d", c.Parallel)
	}
	if err := ValidateSolver(c.Solver); err != nil {
		return err
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("kmeans: BatchSize must be non-negative, got %d", c.BatchSize)
	}
	if c.InitialCounts != nil && len(c.InitialCounts) != c.K {
		return fmt.Errorf("kmeans: %d initial counts but K=%d", len(c.InitialCounts), c.K)
	}
	return nil
}

// Result is the outcome of one k-means run.
type Result struct {
	// Centroids are the final cluster means.
	Centroids []vector.Vector
	// Assignments maps each input point index to its centroid index.
	Assignments []int
	// Counts[j] is the number of input points assigned to centroid j.
	Counts []int
	// Weights[j] is the total input weight assigned to centroid j; with
	// unit weights it equals float64(Counts[j]).
	Weights []float64
	// MSE is the final weighted mean square error.
	MSE float64
	// SSE is the final weighted sum of squared errors (MSE * total
	// weight) — the paper's E (unit weights) or E_pm (merge).
	SSE float64
	// Iterations is the number of Lloyd iterations executed.
	Iterations int
	// Converged reports whether the ΔMSE criterion was met before
	// MaxIterations.
	Converged bool
	// DeltaMSE is the final iteration's MSE improvement (MSE(n-1) -
	// MSE(n)) — at convergence, the residual the Epsilon criterion
	// accepted. It is 0 when fewer than two iterations ran.
	DeltaMSE float64
	// DistanceEvals counts the distances the iteration computed,
	// point-to-centroid and centroid-to-centroid alike, including the
	// final consistent pass but not the seeding — the machine-independent
	// cost measure of Capó et al. (PAPERS.md). It depends only on the
	// input, so it is identical across restart worker counts.
	DistanceEvals int64
}

// WeightedCentroids packages the result as the partial operator's output:
// each centroid weighted by its assigned count, the paper's
// {(c_1j, w_1j) ... (c_kj, w_kj)}.
func (res *Result) WeightedCentroids(dim int) (*dataset.WeightedSet, error) {
	out, err := dataset.NewWeightedSet(dim)
	if err != nil {
		return nil, err
	}
	for j, c := range res.Centroids {
		if res.Weights[j] == 0 {
			// A starved centroid represents no data; emitting it would
			// give the merge step a zero-weight phantom.
			continue
		}
		if err := out.Add(dataset.WeightedPoint{Vec: c.Clone(), Weight: res.Weights[j]}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Run executes weighted Lloyd k-means over points with the given config.
// The paper's serial k-means is Run over Unweighted(points); the merge
// k-means is Run over partial-stage centroids with HeaviestSeeder.
func Run(points *dataset.WeightedSet, cfg Config, r *rng.RNG) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if points.Len() == 0 {
		return nil, errors.New("kmeans: empty input")
	}
	centroids, err := cfg.Seeder.Seed(points, cfg.K, r)
	if err != nil {
		return nil, err
	}
	if cfg.Solver == SolverMiniBatch {
		// The sampling stream is derived from the caller's RNG after
		// seeding, so a run remains reproducible from (points, cfg, r)
		// and the full-Lloyd solvers' RNG consumption is unchanged.
		cfg.SampleSeed = r.Uint64()
	}
	return runLloyd(points, centroids, cfg, nil)
}

// RunFromCentroids executes Lloyd iterations from caller-provided initial
// centroids (deep-copied), used by baselines and the incremental merge.
func RunFromCentroids(points *dataset.WeightedSet, initial []vector.Vector, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(initial) != cfg.K {
		return nil, fmt.Errorf("kmeans: %d initial centroids but K=%d", len(initial), cfg.K)
	}
	if points.Len() == 0 {
		return nil, errors.New("kmeans: empty input")
	}
	centroids := make([]vector.Vector, len(initial))
	for i, c := range initial {
		if len(c) != points.Dim() {
			return nil, vector.ErrDimensionMismatch
		}
		centroids[i] = c.Clone()
	}
	return runLloyd(points, centroids, cfg, nil)
}

// runLloyd dispatches to the full Lloyd or mini-batch iteration core.
// centroids is owned by the callee. sc may be nil (a private scratch is
// used) or a reusable scratch sized for points and cfg.K — RunRestarts
// passes one per worker so consecutive runs allocate nothing.
func runLloyd(points *dataset.WeightedSet, centroids []vector.Vector, cfg Config, sc *scratch) (*Result, error) {
	if points.TotalWeight() <= 0 {
		return nil, errors.New("kmeans: total weight is zero")
	}
	if cfg.Solver == SolverMiniBatch {
		return runMiniBatch(points, centroids, cfg, sc)
	}
	return runNaive(points, centroids, cfg, sc)
}

// runNaive is the textbook Lloyd iteration (§2 of the paper), executed
// over the flat point slab with every mutable buffer owned by sc: after
// the scratch warms up, iterations perform zero heap allocations. Its
// assignment sweep skips the centroid scans that bounds prove cannot
// change an assignment (bounds.go), so it returns exactly the full-scan
// answer.
func runNaive(points *dataset.WeightedSet, centroids []vector.Vector, cfg Config, sc *scratch) (*Result, error) {
	n := points.Len()
	dim := points.Dim()
	k := len(centroids)
	if sc == nil || sc.n != n || sc.k != k || sc.dim != dim {
		sc = newScratch(n, k, dim)
	}
	data, wts := points.Data(), points.Weights()
	sc.loadCentroids(centroids)
	totalWeight := points.TotalWeight()

	prevMSE := 0.0
	res := &Result{}
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		// Step 2: distance calculation / assignment. The sweep also
		// caches each point's squared distance to its centroid in
		// sc.dists.
		sse := sc.assignSerial(data, wts)

		// Step 3: centroid recalculation (weighted mean jump).
		for j := 0; j < k; j++ {
			if sc.weights[j] > 0 {
				row := sc.cent[j*dim : (j+1)*dim]
				srow := sc.sums[j*dim : (j+1)*dim]
				for d := 0; d < dim; d++ {
					row[d] = srow[d] / sc.weights[j]
				}
				continue
			}
			if cfg.EmptyPolicy == ReseedFarthest {
				sc.reseedEmpty(data, wts, j)
			}
			// DropEmpty: leave centroid where it is.
		}

		mse := sse / totalWeight
		res.Iterations = iter
		res.MSE = mse
		res.SSE = sse

		// Step 4: convergence on ΔMSE. The first iteration has no
		// predecessor; subsequent iterations compare against prevMSE.
		if iter > 1 {
			res.DeltaMSE = prevMSE - mse
			if res.DeltaMSE <= cfg.Epsilon {
				res.Converged = true
				break
			}
		}
		prevMSE = mse
	}

	sc.finishResult(res, data, wts, totalWeight)
	return res, nil
}

// RestartResult is the best run of a multi-restart execution, with
// per-run diagnostics.
type RestartResult struct {
	// Best is the run with the minimum MSE.
	Best *Result
	// BestRun is the index of the winning run.
	BestRun int
	// MSEs records every run's final MSE.
	MSEs []float64
	// TotalIterations sums Lloyd iterations across runs.
	TotalIterations int
	// Converged counts the runs that met the ΔMSE criterion before
	// MaxIterations.
	Converged int
	// DistanceEvals sums every run's Result.DistanceEvals.
	DistanceEvals int64
}

// RunRestarts executes R independent k-means runs with different seed
// sets and returns the representation with the minimal mean square error
// — the paper's procedure for both serial (§5.2, R = 10) and partial
// (§3.2) k-means.
//
// When cfg.Parallel >= 2 the runs fan out across a worker pool. All R
// seed sets are derived from r serially up front (Lloyd iterations
// consume no randomness), so the RNG stream, every per-run result, and
// the best-of-R winner — ties broken by the lowest run index via strict
// < comparison in run order — are bit-identical to serial execution for
// every worker count.
func RunRestarts(points *dataset.WeightedSet, cfg Config, restarts int, r *rng.RNG) (*RestartResult, error) {
	if restarts <= 0 {
		return nil, fmt.Errorf("kmeans: restarts must be positive, got %d", restarts)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("kmeans: restart 0: %w", err)
	}
	if points.Len() == 0 {
		return nil, errors.New("kmeans: restart 0: kmeans: empty input")
	}
	seedSets := make([][]vector.Vector, restarts)
	var sampleSeeds []uint64
	if cfg.Solver == SolverMiniBatch {
		sampleSeeds = make([]uint64, restarts)
	}
	for run := range seedSets {
		seeds, err := cfg.Seeder.Seed(points, cfg.K, r)
		if err != nil {
			return nil, fmt.Errorf("kmeans: restart %d: %w", run, err)
		}
		seedSets[run] = seeds
		if sampleSeeds != nil {
			// Like the seed sets, sampling streams are derived serially
			// up front so parallel restarts stay bit-identical to serial.
			sampleSeeds[run] = r.Uint64()
		}
	}
	cfgFor := func(run int) Config {
		if sampleSeeds == nil {
			return cfg
		}
		c := cfg
		c.SampleSeed = sampleSeeds[run]
		return c
	}

	results := make([]*Result, restarts)
	errs := make([]error, restarts)
	workers := cfg.Parallel
	if workers > restarts {
		workers = restarts
	}
	if workers < 2 {
		sc := newScratch(points.Len(), cfg.K, points.Dim())
		for run := 0; run < restarts; run++ {
			results[run], errs[run] = runLloyd(points, seedSets[run], cfgFor(run), sc)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				sc := newScratch(points.Len(), cfg.K, points.Dim())
				for run := range next {
					results[run], errs[run] = runLloyd(points, seedSets[run], cfgFor(run), sc)
				}
			}()
		}
		for run := 0; run < restarts; run++ {
			next <- run
		}
		close(next)
		wg.Wait()
	}

	out := &RestartResult{MSEs: make([]float64, 0, restarts)}
	for run := 0; run < restarts; run++ {
		if errs[run] != nil {
			return nil, fmt.Errorf("kmeans: restart %d: %w", run, errs[run])
		}
		res := results[run]
		out.MSEs = append(out.MSEs, res.MSE)
		out.TotalIterations += res.Iterations
		out.DistanceEvals += res.DistanceEvals
		if res.Converged {
			out.Converged++
		}
		if out.Best == nil || res.MSE < out.Best.MSE {
			out.Best = res
			out.BestRun = run
		}
	}
	return out, nil
}
