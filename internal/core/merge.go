package core

import (
	"errors"
	"fmt"
	"time"

	"streamkm/internal/dataset"
	"streamkm/internal/kmeans"
	"streamkm/internal/rng"
	"streamkm/internal/vector"
)

// MergeMode selects how the merge operator combines partial results
// (§3.3): collectively over all centroids at once (the paper's choice,
// statistically fair to every partition) or incrementally as each
// partition's centroids arrive (treats early chunks preferentially;
// provided for the A1 ablation).
type MergeMode int

const (
	// MergeCollective clusters the union of all partitions' weighted
	// centroids in one weighted k-means.
	MergeCollective MergeMode = iota
	// MergeIncremental folds each arriving centroid set into the
	// running representation with a weighted k-means per arrival.
	MergeIncremental
)

// String names the mode for benchmark tables.
func (m MergeMode) String() string {
	switch m {
	case MergeCollective:
		return "collective"
	case MergeIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("MergeMode(%d)", int(m))
	}
}

// MergeConfig parameterizes the merge k-means operator.
type MergeConfig struct {
	// K is the final number of centroids for the grid cell.
	K int
	// Epsilon is the ΔMSE convergence threshold (0 = paper's 1e-9).
	Epsilon float64
	// MaxIterations caps Lloyd iterations (0 = default).
	MaxIterations int
	// Seeder overrides initialization; nil selects HeaviestSeeder, the
	// paper's largest-weight initialization (§3.3 step 1).
	Seeder kmeans.Seeder
	// Mode selects collective (default, paper) or incremental merging.
	Mode MergeMode
	// Solver selects the merge iteration kernel ("" or kmeans.SolverLloyd
	// = full Lloyd; kmeans.SolverMiniBatch = sampled gradient steps with
	// per-center learning rates — the warm-startable fast-query path).
	Solver string
}

func (c MergeConfig) validate() error {
	if c.K <= 0 {
		return fmt.Errorf("core: merge K must be positive, got %d", c.K)
	}
	if err := kmeans.ValidateSolver(c.Solver); err != nil {
		return err
	}
	return nil
}

func (c MergeConfig) kmeansConfig() kmeans.Config {
	seeder := c.Seeder
	if seeder == nil {
		seeder = kmeans.HeaviestSeeder{}
	}
	return kmeans.Config{
		K:             c.K,
		Epsilon:       c.Epsilon,
		MaxIterations: c.MaxIterations,
		Seeder:        seeder,
		Solver:        c.Solver,
	}
}

// MergeResult is the final cell representation produced by the merge
// operator.
type MergeResult struct {
	// Centroids are the cell's final k centroids.
	Centroids []vector.Vector
	// Weights[j] is the total data weight merged into centroid j; the
	// sum equals the total number of points in the cell.
	Weights []float64
	// MSE is the paper's E_pm normalized by total weight: the weighted
	// mean squared distance between the merged centroids and the
	// partial-stage weighted centroids assigned to them.
	MSE float64
	// Iterations counts Lloyd iterations in the merge step (summed over
	// arrivals in incremental mode).
	Iterations int
	// Inputs is the number of weighted centroids consumed.
	Inputs int
	// Elapsed is the wall-clock time of the merge step.
	Elapsed time.Duration
}

// MergeKMeans combines the weighted centroid sets of all partitions into
// the final cell clustering. In collective mode all sets are pooled and a
// single weighted k-means runs over them; in incremental mode the sets
// are folded in arrival order. r is only consulted when a randomized
// seeder is configured.
func MergeKMeans(parts []*dataset.WeightedSet, cfg MergeConfig, r *rng.RNG) (*MergeResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, errors.New("core: merge requires at least one partial result")
	}
	dim := parts[0].Dim()
	for i, p := range parts {
		if p.Dim() != dim {
			return nil, fmt.Errorf("core: partial result %d has dim %d, want %d", i, p.Dim(), dim)
		}
	}
	start := time.Now()
	switch cfg.Mode {
	case MergeCollective:
		return mergeCollective(parts, cfg, r, dim, start)
	case MergeIncremental:
		return mergeIncremental(parts, cfg, r, dim, start)
	default:
		return nil, fmt.Errorf("core: unknown merge mode %d", int(cfg.Mode))
	}
}

func mergeCollective(parts []*dataset.WeightedSet, cfg MergeConfig, r *rng.RNG, dim int, start time.Time) (*MergeResult, error) {
	pool, err := dataset.NewWeightedSet(dim)
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		if err := pool.Append(p); err != nil {
			return nil, err
		}
	}
	inputs := pool.Len()
	res, err := runMergeKMeans(pool, cfg, r)
	if err != nil {
		return nil, err
	}
	return &MergeResult{
		Centroids:  res.Centroids,
		Weights:    res.Weights,
		MSE:        res.MSE,
		Iterations: res.Iterations,
		Inputs:     inputs,
		Elapsed:    time.Since(start),
	}, nil
}

func mergeIncremental(parts []*dataset.WeightedSet, cfg MergeConfig, r *rng.RNG, dim int, start time.Time) (*MergeResult, error) {
	var (
		current    *dataset.WeightedSet
		iterations int
		inputs     int
		lastRes    *kmeans.Result
	)
	for _, p := range parts {
		inputs += p.Len()
		if current == nil {
			current = dataset.MustNewWeightedSet(dim)
			if err := current.Append(p); err != nil {
				return nil, err
			}
		} else {
			if err := current.Append(p); err != nil {
				return nil, err
			}
		}
		if current.Len() < cfg.K {
			// Not enough material to form k clusters yet; keep pooling.
			continue
		}
		res, err := runMergeKMeans(current, cfg, r)
		if err != nil {
			return nil, err
		}
		iterations += res.Iterations
		lastRes = res
		// Collapse the pool to the merged representation: earlier
		// chunks now only survive through these k weighted centroids —
		// exactly the preferential treatment §3.3 warns about.
		collapsed, err := res.WeightedCentroids(dim)
		if err != nil {
			return nil, err
		}
		current = collapsed
	}
	if lastRes == nil {
		return nil, fmt.Errorf("core: incremental merge never accumulated %d centroids", cfg.K)
	}
	return &MergeResult{
		Centroids:  lastRes.Centroids,
		Weights:    lastRes.Weights,
		MSE:        lastRes.MSE,
		Iterations: iterations,
		Inputs:     inputs,
		Elapsed:    time.Since(start),
	}, nil
}

func runMergeKMeans(pool *dataset.WeightedSet, cfg MergeConfig, r *rng.RNG) (*kmeans.Result, error) {
	if pool.Len() < cfg.K {
		return nil, fmt.Errorf("core: merge pool has %d centroids, need at least k=%d", pool.Len(), cfg.K)
	}
	res, err := kmeans.Run(pool, cfg.kmeansConfig(), r)
	if err != nil {
		return nil, fmt.Errorf("core: merge k-means: %w", err)
	}
	return res, nil
}
