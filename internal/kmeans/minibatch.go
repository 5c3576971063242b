package kmeans

import (
	"fmt"

	"streamkm/internal/dataset"
	"streamkm/internal/rng"
	"streamkm/internal/vector"
)

// The mini-batch kernel (Sculley, "Web-Scale K-Means Clustering",
// WWW 2010) trades exact Lloyd sweeps for sampled gradient steps: each
// batch assigns a handful of sampled points to their nearest centers
// and moves only those centers, with a per-center learning rate that
// decays as the center accumulates mass. Generalized here to weighted
// points (a row of weight w contributes mass w, so a heavy merged
// centroid pulls harder than a unit point), it recovers full-Lloyd
// quality at a fraction of the cost on large inputs — the regime of the
// merge/reopt hot path and the windowed snapshot index, where the same
// pool is re-clustered from a warm start after small changes.

// defaultBatchFactor sizes the default mini-batch at 10*K samples, so
// every center is visited a handful of times per step in expectation.
const defaultBatchFactor = 10

// batchesPerRound is how many gradient batches run between two full
// evaluation sweeps. Batch-to-batch MSE is noisy (every batch sees a
// different sample), so the ΔMSE convergence criterion is judged on
// full-pool evaluations spaced this many batches apart.
const batchesPerRound = 4

// runMiniBatch is the mini-batch iteration core. Config.MaxIterations
// caps gradient batches (each counted as one iteration; 0 = a sample
// budget of about two passes over the input), and the ΔMSE criterion
// compares consecutive full evaluations. Randomness comes
// exclusively from Config.SampleSeed — the caller's RNG is never
// consumed here, preserving the package invariant that iteration
// kernels draw no randomness beyond what Run derives up front.
func runMiniBatch(points *dataset.WeightedSet, centroids []vector.Vector, cfg Config, sc *scratch) (*Result, error) {
	n := points.Len()
	dim := points.Dim()
	k := len(centroids)
	if sc == nil || sc.n != n || sc.k != k || sc.dim != dim {
		sc = newScratch(n, k, dim)
	}
	sc.ensureMiniBatch()
	data, wts := points.Data(), points.Weights()
	sc.loadCentroids(centroids)
	totalWeight := points.TotalWeight()

	if cfg.InitialCounts != nil {
		copy(sc.mbCounts, cfg.InitialCounts)
	} else {
		zeroFloats(sc.mbCounts)
	}
	for _, i := range cfg.FocusRows {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("kmeans: focus row %d out of range [0,%d)", i, n)
		}
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = defaultBatchFactor * k
	}
	maxBatches := cfg.MaxIterations
	if maxBatches <= 0 {
		// Default sample budget: about four expected passes over the
		// pool (Sculley runs a fixed budget of this order), with a floor
		// of a few evaluation rounds so small inputs still converge.
		maxBatches = 4*n/batch + 1
		if min := 5 * batchesPerRound; maxBatches < min {
			maxBatches = min
		}
	}

	sampler := rng.New(cfg.SampleSeed)
	res := &Result{}
	batches := 0
	if len(cfg.FocusRows) > 0 {
		// The focus rows form one deterministic first batch so changed
		// data is guaranteed to move the answer before sampling starts.
		sc.miniBatchRows(data, wts, cfg.FocusRows)
		batches++
	}
	prevMSE := 0.0
	evals := 0
	for batches < maxBatches {
		for b := 0; b < batchesPerRound && batches < maxBatches; b++ {
			sc.miniBatchSample(data, wts, batch, sampler)
			batches++
		}
		// Full evaluation sweep: exact assignment and SSE against the
		// current centers, moving nothing — the quantity the ΔMSE
		// criterion is judged on. (assignSerial also refreshes the
		// per-cluster statistics, which the final finishResult sweep
		// recomputes anyway.)
		sse := sc.assignSerial(data, wts)
		mse := sse / totalWeight
		evals++
		res.MSE = mse
		res.SSE = sse
		if evals > 1 {
			res.DeltaMSE = prevMSE - mse
			if res.DeltaMSE <= cfg.Epsilon {
				res.Converged = true
				break
			}
		}
		prevMSE = mse
	}
	res.Iterations = batches
	sc.finishResult(res, data, wts, totalWeight)
	return res, nil
}

// ensureMiniBatch allocates the learning-rate mass column used only by
// the mini-batch solver.
func (sc *scratch) ensureMiniBatch() {
	if sc.mbCounts == nil {
		sc.mbCounts = make([]float64, sc.k)
	}
}

// miniBatchStep applies one sampled row: assign it to its nearest
// center, grow that center's mass by the row's weight, and move the
// center toward the row by eta = w / mass (Sculley's per-center
// learning rate, weighted). Zero-weight rows carry no mass and are
// skipped. It reports whether the row was applied.
func (sc *scratch) miniBatchStep(data, wts []float64, i int) bool {
	w := wts[i]
	if w == 0 {
		return false
	}
	dim := sc.dim
	off := i * dim
	x := data[off : off+dim : off+dim]
	j, _ := vector.NearestIndexFlat(x, sc.cent, sc.k, dim)
	sc.mbCounts[j] += w
	eta := w / sc.mbCounts[j]
	row := sc.cent[j*dim : (j+1)*dim : (j+1)*dim]
	for d, xv := range x {
		row[d] += eta * (xv - row[d])
	}
	return true
}

// miniBatchRows applies one gradient batch over the given rows in order.
func (sc *scratch) miniBatchRows(data, wts []float64, rows []int) {
	applied := 0
	for _, i := range rows {
		if sc.miniBatchStep(data, wts, i) {
			applied++
		}
	}
	sc.evals += int64(applied * sc.k)
}

// miniBatchSample draws one batch of b rows with replacement from the
// sampling stream and applies it.
func (sc *scratch) miniBatchSample(data, wts []float64, b int, r *rng.RNG) {
	applied := 0
	for s := 0; s < b; s++ {
		if sc.miniBatchStep(data, wts, r.Intn(sc.n)) {
			applied++
		}
	}
	sc.evals += int64(applied * sc.k)
}
