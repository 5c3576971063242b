package kmeans

import (
	"math"

	"streamkm/internal/vector"
)

// This file implements the bounded assignment sweep behind every full
// Lloyd pass (assignSerial and finishResult) —
// the paper's §2 remark that step 2's re-sorting of points can be
// limited with bounds, applied without changing a single output bit.
//
// Each point keeps Hamerly's lower bound on its distance to every
// centroid other than its current one. A sweep computes only the exact
// squared distance d to the current centroid a and skips the full scan
// when
//
//	inflate(sqrt(d)) < deflate(max(lower[i], halfMin[a]))
//
// because then every other centroid is strictly farther than a, so
// vector.NearestIndexFlat would return a with exactly d (the same
// expression, index-order strict < scan). The code tests the squared
// form, d < b² with b the bound deflated twice, which implies the test
// above up to one rounding and saves a square root per point. Between
// sweeps each lower bound drops by the largest inflated move of any
// other centroid.
//
// Exactness rests on the margins. For dim <= maxBoundedDim every
// computed distance is within a relative (dim+2)·2⁻⁵³ <= 7.3e-12 of
// the true one, plus an absolute sqrt(dim·2⁻¹⁰⁷⁴) <= 6e-160 from squared
// terms that underflow. boundMargin and boundSlack exceed both by two
// orders of magnitude or more, so a strict inequality between inflated
// and deflated values implies the strict inequality between the
// kernel's computed squared distances.
//
// Overflowed distances (+Inf) are capped at maxDist, the smallest true
// distance that can overflow, before they enter a bound. NaN fails every
// comparison closed, so it always forces the full scan; a non-finite
// centroid switches the sweep to plain NearestIndexFlat scans, because
// NearestTwoFlat answers differently for rows at NaN distance.

// boundMargin is the relative slack applied to every bound comparison,
// centroid move and lower-bound decrement.
const boundMargin = 1e-9

// boundSlack is the absolute slack on top of boundMargin, covering
// squared distances that lose precision to underflow.
const boundSlack = 1e-150

// maxBoundedDim caps the dimension at which rounding error stays far
// below boundMargin; wider points always take the full scan.
const maxBoundedDim = 1 << 16

// maxDist is sqrt(MaxFloat64): a squared distance that overflows to
// +Inf belongs to a true distance of at least this.
var maxDist = math.Sqrt(math.MaxFloat64)

func inflate(v float64) float64 { return v*(1+boundMargin) + boundSlack }
func deflate(v float64) float64 { return v*(1-boundMargin) - boundSlack }

// capDist replaces +Inf by maxDist and leaves NaN alone.
func capDist(v float64) float64 {
	if v > maxDist {
		return maxDist
	}
	return v
}

// sweepMode is how an assignment sweep finds each point's centroid.
type sweepMode int

const (
	// sweepPlain scans every centroid with NearestIndexFlat and leaves
	// the bounds invalid: some centroid coordinate is NaN or ±Inf.
	sweepPlain sweepMode = iota
	// sweepScan scans every centroid with NearestTwoFlat and records
	// every lower bound: the first sweep of a run or after a reseed.
	sweepScan
	// sweepBounded scans only the points whose bounds do not prove
	// their assignment.
	sweepBounded
)

// beginSweep chooses the sweep's mode and, for a bounded sweep,
// computes its per-centroid data: the two largest inflated centroid
// moves since the last sweep and every halfMin. It returns the distance
// evaluations that took (k moves plus k(k-1)/2 centroid pairs).
func (sc *scratch) beginSweep() int64 {
	k, dim := sc.k, sc.dim
	for _, v := range sc.cent[:k*dim] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			sc.mode = sweepPlain
			return 0
		}
	}
	if !sc.boundsValid || dim > maxBoundedDim {
		sc.mode = sweepScan
		return 0
	}
	sc.mode = sweepBounded
	sc.moveMax, sc.moveNext, sc.moveArg = 0, 0, -1
	for j := 0; j < k; j++ {
		row := sc.cent[j*dim : (j+1)*dim : (j+1)*dim]
		m := inflate(math.Sqrt(vector.SquaredDistanceFloats(row, sc.swept[j*dim:(j+1)*dim])))
		if m > sc.moveMax {
			sc.moveNext = sc.moveMax
			sc.moveMax, sc.moveArg = m, j
		} else if m > sc.moveNext {
			sc.moveNext = m
		}
		sc.halfMin[j] = math.Inf(1)
	}
	// Minimum squared distances first: sqrt is monotone, so one root per
	// centroid gives the same bits as a root per pair.
	for j := 0; j < k; j++ {
		row := sc.cent[j*dim : (j+1)*dim : (j+1)*dim]
		for j2 := j + 1; j2 < k; j2++ {
			d := vector.SquaredDistanceFloats(row, sc.cent[j2*dim:(j2+1)*dim])
			if d < sc.halfMin[j] {
				sc.halfMin[j] = d
			}
			if d < sc.halfMin[j2] {
				sc.halfMin[j2] = d
			}
		}
	}
	for j, h := range sc.halfMin {
		sc.halfMin[j] = capDist(math.Sqrt(h)) / 2
	}
	return int64(k + k*(k-1)/2)
}

// endSweep records the sweep's distance evaluations and, unless it was
// plain, the centroids its bounds now describe.
func (sc *scratch) endSweep(evals int64) {
	sc.evals += evals
	sc.boundsValid = sc.mode != sweepPlain
	if sc.boundsValid {
		copy(sc.swept, sc.cent)
	}
}

// nearest is the sweep's per-point step: point i's nearest centroid and
// squared distance, bit-identical to vector.NearestIndexFlat over the
// current centroids, plus the distance evaluations it spent. It reads
// the point's previous assignment and maintains its lower bound; the
// caller records the assignment.
func (sc *scratch) nearest(i int, x []float64) (int, float64, int) {
	k, dim := sc.k, sc.dim
	switch sc.mode {
	case sweepPlain:
		j, d := vector.NearestIndexFlat(x, sc.cent, k, dim)
		return j, d, k
	case sweepBounded:
		a := sc.assign[i]
		d := vector.SquaredDistanceFloats(x, sc.cent[a*dim:(a+1)*dim])
		mv := sc.moveMax
		if a == sc.moveArg {
			mv = sc.moveNext
		}
		l := deflate(sc.lower[i] - mv)
		m := sc.halfMin[a]
		if l > m {
			m = l
		}
		if b := deflate(deflate(m)); b > 0 && d < b*b {
			sc.lower[i] = l
			return a, d, 1
		}
		j, d, e := sc.scan(i, x)
		return j, d, e + 1
	}
	return sc.scan(i, x)
}

// scan is the full scan of nearest: it also resets the point's lower
// bound to its second-nearest distance. With finite centroids
// NearestTwoFlat agrees with NearestIndexFlat unless every distance is
// +Inf or NaN; those points take NearestIndexFlat's answer and the
// trivial bound 0.
func (sc *scratch) scan(i int, x []float64) (int, float64, int) {
	k, dim := sc.k, sc.dim
	j, d, second := vector.NearestTwoFlat(x, sc.cent, k, dim)
	if math.IsInf(d, 1) {
		j, d = vector.NearestIndexFlat(x, sc.cent, k, dim)
		sc.lower[i] = 0
		return j, d, 2 * k
	}
	sc.lower[i] = capDist(math.Sqrt(second))
	return j, d, k
}
