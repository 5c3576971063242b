package kmeans

import (
	"math"

	"streamkm/internal/dataset"
	"streamkm/internal/vector"
)

// This file implements Hamerly's accelerated Lloyd iteration — the
// "several improvements for step 2 that allow us to limit the number of
// points that have to be re-sorted" the paper mentions (§2) but does not
// implement. Each point keeps an upper bound u on the distance to its
// assigned centroid and a lower bound l on the distance to every other
// centroid; most points skip the full nearest-centroid scan in most
// iterations. The algorithm runs to the assignment fixpoint (at which
// the ΔMSE criterion is trivially satisfied) and produces the same
// fixpoint Lloyd's iteration reaches from the same seeds.

// runHamerly is the accelerated counterpart of runNaive. centroids is
// owned by the callee; sc follows the runNaive contract (nil or a
// reusable scratch of matching shape).
func runHamerly(points *dataset.WeightedSet, centroids []vector.Vector, cfg Config, sc *scratch) (*Result, error) {
	n := points.Len()
	dim := points.Dim()
	k := len(centroids)
	if sc == nil || sc.n != n || sc.k != k || sc.dim != dim {
		sc = newScratch(n, k, dim)
		defer sc.release()
	}
	sc.ensureHamerly()
	data, wts := points.Data(), points.Weights()
	sc.loadCentroids(centroids)
	cent := sc.cent

	// initialize resets every bound, sum and assignment with one exact
	// pass — used at start and after an empty-cluster reseed.
	initialize := func() {
		for j := 0; j < k; j++ {
			sc.weights[j] = 0
		}
		zeroFloats(sc.sums)
		for i := 0; i < n; i++ {
			off := i * dim
			x := data[off : off+dim : off+dim]
			best, bd, sd := nearestTwoFlat(x, cent, k, dim)
			sc.assign[i] = best
			sc.upper[i] = bd
			sc.lower[i] = sd
			w := wts[i]
			sc.weights[best] += w
			row := sc.sums[best*dim : (best+1)*dim]
			for t, xv := range x {
				row[t] += w * xv
			}
		}
		sc.evals += int64(n * k)
	}
	initialize()

	res := &Result{}
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		res.Iterations = iter

		// Update centroids from the incrementally maintained sums.
		empties := false
		maxMove := 0.0
		evals := 0
		for j := 0; j < k; j++ {
			if sc.weights[j] == 0 {
				empties = true
				sc.move[j] = 0
				continue
			}
			evals++
			row := cent[j*dim : (j+1)*dim]
			copy(sc.oldCent, row)
			srow := sc.sums[j*dim : (j+1)*dim]
			for d := 0; d < dim; d++ {
				row[d] = srow[d] / sc.weights[j]
			}
			sc.move[j] = math.Sqrt(vector.SquaredDistanceFloats(sc.oldCent, row))
			if sc.move[j] > maxMove {
				maxMove = sc.move[j]
			}
		}
		if empties && cfg.EmptyPolicy == ReseedFarthest {
			sc.evals += int64(evals)
			// One exact pass refreshes the distance cache; each empty
			// cluster then repairs from it without rescanning.
			sc.exactDistances(data)
			for j := 0; j < k; j++ {
				if sc.weights[j] == 0 {
					sc.reseedEmpty(data, wts, j)
				}
			}
			initialize()
			continue
		}

		// Maintain bounds under centroid movement.
		for i := 0; i < n; i++ {
			sc.upper[i] += sc.move[sc.assign[i]]
			sc.lower[i] -= maxMove
		}

		// Precompute s[j] = 0.5 * min_{j' != j} dist(c_j, c_j').
		for j := 0; j < k; j++ {
			min := math.Inf(1)
			row := cent[j*dim : (j+1)*dim]
			for j2 := 0; j2 < k; j2++ {
				if j2 == j {
					continue
				}
				if d := math.Sqrt(vector.SquaredDistanceFloats(row, cent[j2*dim:(j2+1)*dim])); d < min {
					min = d
				}
			}
			sc.halfMin[j] = min / 2
		}
		evals += k * (k - 1)

		// Assignment with bound-based skipping.
		changes := 0
		for i := 0; i < n; i++ {
			a := sc.assign[i]
			m := sc.lower[i]
			if sc.halfMin[a] > m {
				m = sc.halfMin[a]
			}
			if sc.upper[i] <= m {
				continue // bound skip, no distance computed
			}
			off := i * dim
			x := data[off : off+dim : off+dim]
			sc.upper[i] = math.Sqrt(vector.SquaredDistanceFloats(x, cent[a*dim:(a+1)*dim])) // tighten
			evals++
			if sc.upper[i] <= m {
				continue // tightened skip, one distance computed
			}
			best, bd, sd := nearestTwoFlat(x, cent, k, dim)
			evals += k
			sc.lower[i] = sd
			sc.upper[i] = bd
			if best != a {
				changes++
				sc.assign[i] = best
				w := wts[i]
				sc.weights[a] -= w
				rowA := sc.sums[a*dim : (a+1)*dim]
				for t, xv := range x {
					rowA[t] += -w * xv
				}
				sc.weights[best] += w
				rowB := sc.sums[best*dim : (best+1)*dim]
				for t, xv := range x {
					rowB[t] += w * xv
				}
			}
		}
		sc.evals += int64(evals)
		if changes == 0 && maxMove == 0 {
			res.Converged = true
			break
		}
		if changes == 0 {
			// One more centroid update from an unchanged assignment is
			// a fixpoint: the means cannot move again.
			res.Converged = true
			res.Iterations = iter + 1
			for j := 0; j < k; j++ {
				if sc.weights[j] > 0 {
					row := cent[j*dim : (j+1)*dim]
					srow := sc.sums[j*dim : (j+1)*dim]
					for d := 0; d < dim; d++ {
						row[d] = srow[d] / sc.weights[j]
					}
				}
			}
			break
		}
	}

	sc.finishResult(res, data, wts, points.TotalWeight())
	return res, nil
}

// nearestTwoFlat returns the nearest centroid's row index and the
// Euclidean (not squared) distances to the nearest and second-nearest
// rows of the flat k x dim centroid matrix. With a single centroid the
// second distance is +Inf.
func nearestTwoFlat(x, flat []float64, k, dim int) (int, float64, float64) {
	best, bestD, secondD := vector.NearestTwoFlat(x, flat, k, dim)
	return best, math.Sqrt(bestD), math.Sqrt(secondD)
}
