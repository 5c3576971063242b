// Package core implements the paper's primary contribution: the
// partial/merge k-means algorithm (§3). A grid cell's points are divided
// into p partitions that each fit in volatile memory; the partial
// k-means operator clusters each partition independently (with R seed-set
// restarts, keeping the minimum-MSE representation) and emits k weighted
// centroids; the merge k-means operator clusters the union of all
// weighted centroids to produce the cell's final representation.
package core

import (
	"errors"
	"fmt"
	"time"

	"streamkm/internal/dataset"
	"streamkm/internal/kmeans"
	"streamkm/internal/rng"
)

// PartialConfig parameterizes the partial k-means operator (§3.2).
type PartialConfig struct {
	// K is the number of centroids per partition; the paper fixes the
	// same k for all partitions of a grid cell.
	K int
	// Restarts is the number of random seed sets tried per partition;
	// the minimum-MSE representation is kept (paper: 10).
	Restarts int
	// Epsilon is the ΔMSE convergence threshold (0 = paper's 1e-9).
	Epsilon float64
	// MaxIterations caps Lloyd iterations per run (0 = default).
	MaxIterations int
	// Seeder overrides the initial-centroid strategy (nil = random, as
	// in the paper).
	Seeder kmeans.Seeder
	// Workers, when >= 2, fans the Restarts runs across that many
	// goroutines (§3.4's option 2 applied inside one partial operator).
	// Results are bit-identical to serial execution for any value.
	Workers int
}

func (c PartialConfig) validate() error {
	if c.K <= 0 {
		return fmt.Errorf("core: partial K must be positive, got %d", c.K)
	}
	if c.Restarts <= 0 {
		return fmt.Errorf("core: partial restarts must be positive, got %d", c.Restarts)
	}
	return nil
}

func (c PartialConfig) kmeansConfig() kmeans.Config {
	return kmeans.Config{
		K:             c.K,
		Epsilon:       c.Epsilon,
		MaxIterations: c.MaxIterations,
		Seeder:        c.Seeder,
		Parallel:      c.Workers,
	}
}

// PartialResult is one partition's clustering: the paper's
// {(c_1j, w_1j), ..., (c_kj, w_kj)} plus diagnostics.
type PartialResult struct {
	// Centroids holds the winning run's centroids weighted by assigned
	// point counts; sum of weights equals the partition size N_j.
	Centroids *dataset.WeightedSet
	// MSE is the winning run's mean square error within the partition.
	MSE float64
	// Iterations sums Lloyd iterations across all restarts.
	Iterations int
	// Restarts is the number of seed-set restarts executed (cfg.Restarts).
	Restarts int
	// Converged counts the restarts whose run met the ΔMSE criterion
	// before MaxIterations.
	Converged int
	// DeltaMSE is the winning run's final MSE improvement — the
	// residual its convergence criterion accepted (see kmeans.Result).
	DeltaMSE float64
	// Points is the partition size N_j.
	Points int
	// Elapsed is the wall-clock time of the partial step.
	Elapsed time.Duration
}

// PartialKMeans clusters one partition: it runs k-means Restarts times
// with different random seed sets and returns the weighted centroids of
// the minimum-MSE representation.
func PartialKMeans(chunk *dataset.Set, cfg PartialConfig, r *rng.RNG) (*PartialResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if chunk.Len() == 0 {
		return nil, errors.New("core: empty partition")
	}
	if chunk.Len() < cfg.K {
		return nil, fmt.Errorf("core: partition of %d points cannot seed k=%d (choose fewer splits or smaller k)",
			chunk.Len(), cfg.K)
	}
	start := time.Now()
	weighted := dataset.Unweighted(chunk)
	rr, err := kmeans.RunRestarts(weighted, cfg.kmeansConfig(), cfg.Restarts, r)
	if err != nil {
		return nil, fmt.Errorf("core: partial k-means: %w", err)
	}
	wc, err := rr.Best.WeightedCentroids(chunk.Dim())
	if err != nil {
		return nil, err
	}
	return &PartialResult{
		Centroids:  wc,
		MSE:        rr.Best.MSE,
		Iterations: rr.TotalIterations,
		Restarts:   cfg.Restarts,
		Converged:  rr.Converged,
		DeltaMSE:   rr.Best.DeltaMSE,
		Points:     chunk.Len(),
		Elapsed:    time.Since(start),
	}, nil
}
