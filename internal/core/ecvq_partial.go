package core

import (
	"errors"
	"fmt"
	"time"

	"streamkm/internal/dataset"
	"streamkm/internal/ecvq"
	"streamkm/internal/rng"
)

// ECVQPartialConfig parameterizes the ECVQ-based partial operator — the
// extension §3.3's Remarks propose: "ECVQ-based algorithms do not fix
// the parameter k at the beginning ... but define a maximum k, and use a
// penalizing function ... This allows to find an optimal k for a
// partition on the fly." Small partitions emit fewer weighted centroids,
// large ones more; the merge step consumes them unchanged.
type ECVQPartialConfig struct {
	// MaxK is the per-partition centroid ceiling.
	MaxK int
	// Lambda is the ECVQ rate penalty; 0 behaves like plain k-means
	// with k = MaxK.
	Lambda float64
	// Restarts tries several random seed sets, keeping the minimum-cost
	// quantizer (0 = 1).
	Restarts int
	// Epsilon and MaxIterations tune each ECVQ run.
	Epsilon       float64
	MaxIterations int
}

func (c ECVQPartialConfig) validate() error {
	if c.MaxK <= 0 {
		return fmt.Errorf("core: ECVQ MaxK must be positive, got %d", c.MaxK)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("core: ECVQ Lambda must be non-negative, got %g", c.Lambda)
	}
	return nil
}

// ECVQPartialResult reports one partition's adaptive reduction.
type ECVQPartialResult struct {
	// Centroids are the surviving weighted centroids (K <= MaxK).
	Centroids *dataset.WeightedSet
	// K is the surviving codebook size.
	K int
	// Cost is the winning run's Lagrangian (distortion + λ·rate).
	Cost float64
	// Starved counts discarded seeds in the winning run.
	Starved int
	// Points is the partition size.
	Points int
	// Elapsed is the wall-clock time of this partial step.
	Elapsed time.Duration
}

// ECVQPartial reduces one partition with entropy-constrained VQ instead
// of fixed-k k-means.
func ECVQPartial(chunk *dataset.Set, cfg ECVQPartialConfig, r *rng.RNG) (*ECVQPartialResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if chunk.Len() == 0 {
		return nil, errors.New("core: empty partition")
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	start := time.Now()
	weighted := dataset.Unweighted(chunk)
	var best *ecvq.Result
	for run := 0; run < restarts; run++ {
		res, err := ecvq.Quantize(weighted, ecvq.Config{
			MaxK:          cfg.MaxK,
			Lambda:        cfg.Lambda,
			Epsilon:       cfg.Epsilon,
			MaxIterations: cfg.MaxIterations,
		}, r)
		if err != nil {
			return nil, fmt.Errorf("core: ECVQ partial run %d: %w", run, err)
		}
		if best == nil || res.Cost < best.Cost {
			best = res
		}
	}
	wc, err := best.WeightedCentroids(chunk.Dim())
	if err != nil {
		return nil, err
	}
	return &ECVQPartialResult{
		Centroids: wc,
		K:         best.K,
		Cost:      best.Cost,
		Starved:   best.Starved,
		Points:    chunk.Len(),
		Elapsed:   time.Since(start),
	}, nil
}
