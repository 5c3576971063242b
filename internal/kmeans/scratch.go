package kmeans

import (
	"streamkm/internal/vector"
)

// scratch owns every mutable buffer a Lloyd run needs, so steady-state
// iterations allocate nothing: assignments, the per-point distance cache,
// per-cluster statistics, the flat centroid matrix and the sweep bounds.
// One scratch serves one run at a time; RunRestarts gives each restart
// worker its own and reuses it across that worker's runs. A run's Result
// copies out of the scratch, so reuse cannot clobber earlier results.
type scratch struct {
	n, k, dim int

	assign []int
	// dists[i] is the squared distance from point i to its assigned
	// centroid, cached by the assignment sweep. The empty-cluster reseed
	// reads it instead of re-scanning all points per empty cluster.
	dists   []float64
	counts  []int
	weights []float64
	sums    []float64 // k*dim, flat
	cent    []float64 // k*dim, flat centroid matrix

	// Bound state of the bounded sweep (bounds.go): lower[i] bounds the
	// distance from point i to every centroid other than assign[i],
	// halfMin[j] is half the distance from centroid j to its nearest
	// other centroid.
	lower   []float64 // n
	halfMin []float64 // k
	// Bounded-sweep state: swept is the centroid matrix the bounds
	// describe, boundsValid says they describe it, mode is the current
	// sweep's strategy, and moveMax/moveNext are the largest and
	// second-largest inflated centroid moves since the last sweep
	// (moveArg is the index of the largest).
	swept             []float64 // k*dim
	boundsValid       bool
	mode              sweepMode
	moveMax, moveNext float64
	moveArg           int
	// evals counts the run's distance evaluations (Result.DistanceEvals).
	evals int64

	// mbCounts is the mini-batch solver's per-center learning-rate
	// mass (the cumulative sampled weight behind each center),
	// allocated on first mini-batch run. Distinct from weights, which
	// every full evaluation sweep resets.
	mbCounts []float64
}

func newScratch(n, k, dim int) *scratch {
	// One slab backs every float buffer and one every int buffer: the
	// serving path builds a scratch per short run, so allocations count.
	fs := make([]float64, 2*n+2*k+3*k*dim)
	take := func(m int) []float64 {
		b := fs[:m:m]
		fs = fs[m:]
		return b
	}
	is := make([]int, n+k)
	return &scratch{
		n:       n,
		k:       k,
		dim:     dim,
		assign:  is[:n:n],
		counts:  is[n:],
		dists:   take(n),
		lower:   take(n),
		weights: take(k),
		halfMin: take(k),
		sums:    take(k * dim),
		cent:    take(k * dim),
		swept:   take(k * dim),
	}
}

func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// loadCentroids copies the seed centroids into the flat matrix and
// starts a run: no valid bounds, no distance evaluations yet.
func (sc *scratch) loadCentroids(centroids []vector.Vector) {
	for j, c := range centroids {
		copy(sc.cent[j*sc.dim:(j+1)*sc.dim], c)
	}
	sc.boundsValid = false
	sc.evals = 0
}

// assignSerial runs one exact assignment sweep: nearest centroid, cached
// distance, and per-cluster count/weight/sum accumulation, returning the
// weighted SSE. Accumulation order matches the pre-flat implementation
// component for component, so results are bit-identical to it.
func (sc *scratch) assignSerial(data, wts []float64) float64 {
	k, dim, n := sc.k, sc.dim, sc.n
	evals := sc.beginSweep()
	for j := 0; j < k; j++ {
		sc.counts[j] = 0
		sc.weights[j] = 0
	}
	zeroFloats(sc.sums)
	var sse float64
	for i := 0; i < n; i++ {
		off := i * dim
		x := data[off : off+dim : off+dim]
		j, d, e := sc.nearest(i, x)
		evals += int64(e)
		sc.assign[i] = j
		sc.dists[i] = d
		w := wts[i]
		sc.counts[j]++
		sc.weights[j] += w
		row := sc.sums[j*dim : (j+1)*dim]
		for t, xv := range x {
			row[t] += w * xv
		}
		sse += d * w
	}
	sc.endSweep(evals)
	return sse
}

// farthestCached returns the index of the point with the largest cached
// weighted squared distance to its assigned centroid, or -1 when every
// point has zero weight. Callers zero the winner's cache entry after
// consuming it so consecutive empty clusters reseed onto distinct points.
func (sc *scratch) farthestCached(wts []float64) int {
	best, bestD := -1, -1.0
	for i, d := range sc.dists[:sc.n] {
		if wts[i] == 0 {
			continue
		}
		if dw := d * wts[i]; dw > bestD {
			best, bestD = i, dw
		}
	}
	return best
}

// reseedEmpty repairs one empty cluster from the distance cache: move
// centroid j onto the point with the largest cached weighted squared
// distance, then fold distances to the relocated centroid back into the
// cache. The fold keeps successive empty-cluster repairs honest — a
// point right next to a just-placed centroid no longer looks far away,
// so consecutive reseeds land on well-separated points.
func (sc *scratch) reseedEmpty(data, wts []float64, j int) {
	idx := sc.farthestCached(wts)
	if idx < 0 {
		return
	}
	dim := sc.dim
	c := sc.cent[j*dim : (j+1)*dim : (j+1)*dim]
	copy(c, data[idx*dim:(idx+1)*dim])
	sc.dists[idx] = 0
	for i := 0; i < sc.n; i++ {
		off := i * dim
		if d := vector.SquaredDistanceFloats(data[off:off+dim], c); d < sc.dists[i] {
			sc.dists[i] = d
		}
	}
	sc.evals += int64(sc.n)
	// The next sweep scans every point. The bounds would survive the
	// jump (beginSweep charges it as a move), but a jump that far voids
	// nearly all of them, and a failed check costs one distance more
	// than a plain scan.
	sc.boundsValid = false
}

// finishResult runs the final consistent assignment against the final
// centroids — so the reported MSE, assignments, and counts all describe
// one state — and copies every output buffer out of the scratch, so the
// Result survives scratch reuse by later runs.
func (sc *scratch) finishResult(res *Result, data, wts []float64, totalWeight float64) {
	k, dim, n := sc.k, sc.dim, sc.n
	evals := sc.beginSweep()
	for j := 0; j < k; j++ {
		sc.counts[j] = 0
		sc.weights[j] = 0
	}
	var sse float64
	for i := 0; i < n; i++ {
		off := i * dim
		x := data[off : off+dim : off+dim]
		j, d, e := sc.nearest(i, x)
		evals += int64(e)
		sc.assign[i] = j
		sc.counts[j]++
		sc.weights[j] += wts[i]
		sse += d * wts[i]
	}
	sc.endSweep(evals)
	centOut := make([]float64, k*dim)
	copy(centOut, sc.cent)
	cents := make([]vector.Vector, k)
	for j := range cents {
		cents[j] = vector.Vector(centOut[j*dim : (j+1)*dim : (j+1)*dim])
	}
	res.Centroids = cents
	res.Assignments = append([]int(nil), sc.assign...)
	res.Counts = append([]int(nil), sc.counts...)
	res.Weights = append([]float64(nil), sc.weights...)
	res.SSE = sse
	res.MSE = sse / totalWeight
	res.DistanceEvals = sc.evals
}
