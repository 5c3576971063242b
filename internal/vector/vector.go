// Package vector provides dense float64 vector math used throughout the
// library: Euclidean distances, means, weighted means, and running
// statistics. All operations are allocation-conscious; hot-path functions
// (SquaredDistance, AddScaled) never allocate.
package vector

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when two vectors of different lengths
// are combined.
var ErrDimensionMismatch = errors.New("vector: dimension mismatch")

// Vector is a dense D-dimensional point with float64 components.
type Vector []float64

// New returns a zero vector of dimension d.
func New(d int) Vector {
	return make(Vector, d)
}

// Of returns a vector with the given components.
func Of(xs ...float64) Vector {
	v := make(Vector, len(xs))
	copy(v, xs)
	return v
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dim returns the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

// Zero sets every component of v to zero.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// CopyFrom copies src into v. Panics on dimension mismatch; the library
// always pairs vectors of like dimension, so a mismatch is a programmer
// error.
func (v Vector) CopyFrom(src Vector) {
	if len(v) != len(src) {
		panic(ErrDimensionMismatch)
	}
	copy(v, src)
}

// Add adds u into v component-wise.
func (v Vector) Add(u Vector) {
	if len(v) != len(u) {
		panic(ErrDimensionMismatch)
	}
	for i, x := range u {
		v[i] += x
	}
}

// Sub subtracts u from v component-wise.
func (v Vector) Sub(u Vector) {
	if len(v) != len(u) {
		panic(ErrDimensionMismatch)
	}
	for i, x := range u {
		v[i] -= x
	}
}

// AddScaled adds s*u into v component-wise without allocating.
func (v Vector) AddScaled(s float64, u Vector) {
	if len(v) != len(u) {
		panic(ErrDimensionMismatch)
	}
	for i, x := range u {
		v[i] += s * x
	}
}

// Scale multiplies every component of v by s.
func (v Vector) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Dot returns the inner product of v and u.
func (v Vector) Dot(u Vector) float64 {
	if len(v) != len(u) {
		panic(ErrDimensionMismatch)
	}
	var s float64
	for i, x := range u {
		s += v[i] * x
	}
	return s
}

// Norm returns the Euclidean (L2) norm of v.
func (v Vector) Norm() float64 {
	return math.Sqrt(v.Dot(v))
}

// Equal reports whether v and u have identical dimension and components.
func (v Vector) Equal(u Vector) bool {
	if len(v) != len(u) {
		return false
	}
	for i, x := range u {
		if v[i] != x {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether v and u agree component-wise within tol.
func (v Vector) ApproxEqual(u Vector, tol float64) bool {
	if len(v) != len(u) {
		return false
	}
	for i, x := range u {
		if math.Abs(v[i]-x) > tol {
			return false
		}
	}
	return true
}

// String formats v like "[1.5 2 3]".
func (v Vector) String() string {
	return fmt.Sprintf("%v", []float64(v))
}

// SquaredDistance returns the squared Euclidean distance between a and b.
// This is the k-means hot path: squared distance preserves nearest-centroid
// ordering and avoids the sqrt.
func SquaredDistance(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(ErrDimensionMismatch)
	}
	return SquaredDistanceFloats(a, b)
}

// SquaredDistanceFloats is SquaredDistance over raw float64 slices with
// the dimension check hoisted to the caller: b must be at least as long
// as a. Dimensions 2, 3, 6 and 8 (the paper's workloads plus the common
// geo cases) take fully unrolled straight-line paths; other dimensions
// take a 4-way unrolled loop. Every path accumulates into a single sum
// in index order, so the result is bit-identical to the naive
// `for i { d := a[i]-b[i]; s += d*d }` loop across all of them.
func SquaredDistanceFloats(a, b []float64) float64 {
	switch len(a) {
	case 2:
		_ = b[1]
		d0 := a[0] - b[0]
		d1 := a[1] - b[1]
		return d0*d0 + d1*d1
	case 3:
		_ = b[2]
		d0 := a[0] - b[0]
		d1 := a[1] - b[1]
		d2 := a[2] - b[2]
		return d0*d0 + d1*d1 + d2*d2
	case 6:
		_ = b[5]
		d0 := a[0] - b[0]
		d1 := a[1] - b[1]
		d2 := a[2] - b[2]
		d3 := a[3] - b[3]
		d4 := a[4] - b[4]
		d5 := a[5] - b[5]
		return d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5
	case 8:
		_ = b[7]
		d0 := a[0] - b[0]
		d1 := a[1] - b[1]
		d2 := a[2] - b[2]
		d3 := a[3] - b[3]
		d4 := a[4] - b[4]
		d5 := a[5] - b[5]
		d6 := a[6] - b[6]
		d7 := a[7] - b[7]
		return d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5 + d6*d6 + d7*d7
	}
	b = b[:len(a)] // bounds-check elimination hint
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		s += d0 * d0
		d1 := a[i+1] - b[i+1]
		s += d1 * d1
		d2 := a[i+2] - b[i+2]
		s += d2 * d2
		d3 := a[i+3] - b[i+3]
		s += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Distance returns the Euclidean distance between a and b, the
// dis(c_k, v_j) of the paper's step 2.
func Distance(a, b Vector) float64 {
	return math.Sqrt(SquaredDistance(a, b))
}

// Mean returns the component-wise mean of vs. It returns an error for an
// empty input or mismatched dimensions.
func Mean(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("vector: mean of empty set")
	}
	m := New(len(vs[0]))
	for _, v := range vs {
		if len(v) != len(m) {
			return nil, ErrDimensionMismatch
		}
		m.Add(v)
	}
	m.Scale(1 / float64(len(vs)))
	return m, nil
}

// WeightedMean returns sum(w_i * v_i) / sum(w_i), the weighted centroid
// recalculation of the paper's merge step 3. Weights must be non-negative
// and not all zero.
func WeightedMean(vs []Vector, ws []float64) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("vector: weighted mean of empty set")
	}
	if len(vs) != len(ws) {
		return nil, fmt.Errorf("vector: %d vectors but %d weights", len(vs), len(ws))
	}
	m := New(len(vs[0]))
	var total float64
	for i, v := range vs {
		if len(v) != len(m) {
			return nil, ErrDimensionMismatch
		}
		w := ws[i]
		if w < 0 {
			return nil, fmt.Errorf("vector: negative weight %g at index %d", w, i)
		}
		m.AddScaled(w, v)
		total += w
	}
	if total == 0 {
		return nil, errors.New("vector: all weights zero")
	}
	m.Scale(1 / total)
	return m, nil
}

// NearestIndex returns the index of the centroid in cs nearest to x (by
// squared Euclidean distance) and that squared distance. It panics if cs
// is empty: callers guarantee at least one centroid.
func NearestIndex(x Vector, cs []Vector) (int, float64) {
	if len(cs) == 0 {
		panic("vector: NearestIndex with no centroids")
	}
	best := 0
	bestD := SquaredDistance(x, cs[0])
	for i := 1; i < len(cs); i++ {
		if d := SquaredDistance(x, cs[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// NearestIndexFlat is NearestIndex over k centroids stored contiguously
// in flat (row j occupies flat[j*dim : (j+1)*dim]). Scanning one strided
// buffer avoids the per-centroid pointer chase of []Vector and is the
// kernel behind the flat-memory Lloyd hot path. It visits centroids in
// index order with a strict < comparison, so index choice and returned
// distance are bit-identical to NearestIndex over the same rows. It
// panics if k <= 0 or flat is shorter than k*dim.
func NearestIndexFlat(x []float64, flat []float64, k, dim int) (int, float64) {
	if k <= 0 {
		panic("vector: NearestIndexFlat with no centroids")
	}
	_ = flat[k*dim-1]
	switch dim {
	case 3:
		return nearestIndexFlat3(x, flat, k)
	case 6:
		return nearestIndexFlat6(x, flat, k)
	}
	best := 0
	bestD := SquaredDistanceFloats(x, flat[:dim])
	for j := 1; j < k; j++ {
		off := j * dim
		if d := SquaredDistanceFloats(x, flat[off:off+dim]); d < bestD {
			best, bestD = j, d
		}
	}
	return best, bestD
}

// NearestTwoFlat returns the index of the nearest row of the flat
// k x dim centroid matrix plus the squared distances to the nearest and
// second-nearest rows — the full scan of the bounded Lloyd sweep, which
// keeps the second distance as the point's lower bound.
// With k == 1 the second distance is +Inf. Rows are visited in index
// order with strict < comparisons, so the result is bit-identical to a
// naive scan. Panics if k <= 0 or flat is shorter than k*dim.
func NearestTwoFlat(x []float64, flat []float64, k, dim int) (int, float64, float64) {
	if k <= 0 {
		panic("vector: NearestTwoFlat with no centroids")
	}
	_ = flat[k*dim-1]
	switch dim {
	case 3:
		return nearestTwoFlat3(x, flat, k)
	case 6:
		return nearestTwoFlat6(x, flat, k)
	}
	best := 0
	bestD := math.Inf(1)
	secondD := math.Inf(1)
	for j := 0; j < k; j++ {
		off := j * dim
		if d := SquaredDistanceFloats(x, flat[off:off+dim]); d < bestD {
			secondD = bestD
			best, bestD = j, d
		} else if d < secondD {
			secondD = d
		}
	}
	return best, bestD, secondD
}

// nearestTwoFlat3 and nearestTwoFlat6 unroll two rows per iteration
// like the NearestIndexFlat kernels below: both rows' distances are
// computed before either comparison, and the comparisons then run in
// index order, so the result matches the one-row scan bit for bit.
func nearestTwoFlat3(x, flat []float64, k int) (int, float64, float64) {
	x0, x1, x2 := x[0], x[1], x[2]
	best := 0
	bestD := math.Inf(1)
	secondD := math.Inf(1)
	j, off := 0, 0
	for ; j+2 <= k; j, off = j+2, off+6 {
		r := flat[off : off+6 : off+6]
		a0 := x0 - r[0]
		a1 := x1 - r[1]
		a2 := x2 - r[2]
		b0 := x0 - r[3]
		b1 := x1 - r[4]
		b2 := x2 - r[5]
		sa := a0*a0 + a1*a1 + a2*a2
		sb := b0*b0 + b1*b1 + b2*b2
		if sa < bestD {
			secondD = bestD
			best, bestD = j, sa
		} else if sa < secondD {
			secondD = sa
		}
		if sb < bestD {
			secondD = bestD
			best, bestD = j+1, sb
		} else if sb < secondD {
			secondD = sb
		}
	}
	if j < k {
		r := flat[off : off+3 : off+3]
		d0 := x0 - r[0]
		d1 := x1 - r[1]
		d2 := x2 - r[2]
		if s := d0*d0 + d1*d1 + d2*d2; s < bestD {
			secondD = bestD
			best, bestD = j, s
		} else if s < secondD {
			secondD = s
		}
	}
	return best, bestD, secondD
}

func nearestTwoFlat6(x, flat []float64, k int) (int, float64, float64) {
	_ = x[5]
	x0, x1, x2, x3, x4, x5 := x[0], x[1], x[2], x[3], x[4], x[5]
	best := 0
	bestD := math.Inf(1)
	secondD := math.Inf(1)
	j, off := 0, 0
	for ; j+2 <= k; j, off = j+2, off+12 {
		r := flat[off : off+12 : off+12]
		a0 := x0 - r[0]
		a1 := x1 - r[1]
		a2 := x2 - r[2]
		a3 := x3 - r[3]
		a4 := x4 - r[4]
		a5 := x5 - r[5]
		b0 := x0 - r[6]
		b1 := x1 - r[7]
		b2 := x2 - r[8]
		b3 := x3 - r[9]
		b4 := x4 - r[10]
		b5 := x5 - r[11]
		sa := a0*a0 + a1*a1 + a2*a2 + a3*a3 + a4*a4 + a5*a5
		sb := b0*b0 + b1*b1 + b2*b2 + b3*b3 + b4*b4 + b5*b5
		if sa < bestD {
			secondD = bestD
			best, bestD = j, sa
		} else if sa < secondD {
			secondD = sa
		}
		if sb < bestD {
			secondD = bestD
			best, bestD = j+1, sb
		} else if sb < secondD {
			secondD = sb
		}
	}
	if j < k {
		r := flat[off : off+6 : off+6]
		d0 := x0 - r[0]
		d1 := x1 - r[1]
		d2 := x2 - r[2]
		d3 := x3 - r[3]
		d4 := x4 - r[4]
		d5 := x5 - r[5]
		if s := d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5; s < bestD {
			secondD = bestD
			best, bestD = j, s
		} else if s < secondD {
			secondD = s
		}
	}
	return best, bestD, secondD
}

// nearestIndexFlat3 and nearestIndexFlat6 keep the distance computation
// inlined in the scan loop (no per-centroid call), covering the repo's
// dominant dimensionalities: 3-D test workloads and the paper's 6-D
// MISR cells. Two centroid rows are processed per loop iteration so
// their floating-point dependency chains overlap; each row's distance
// uses the same left-associative expression and the two comparisons run
// in index order with strict <, so the winning index and distance stay
// bit-identical to the one-row-at-a-time scan.
func nearestIndexFlat3(x, flat []float64, k int) (int, float64) {
	x0, x1, x2 := x[0], x[1], x[2]
	best := 0
	row := flat[0:3:3]
	d0 := x0 - row[0]
	d1 := x1 - row[1]
	d2 := x2 - row[2]
	bestD := d0*d0 + d1*d1 + d2*d2
	j, off := 1, 3
	for ; j+2 <= k; j, off = j+2, off+6 {
		r := flat[off : off+6 : off+6]
		a0 := x0 - r[0]
		a1 := x1 - r[1]
		a2 := x2 - r[2]
		b0 := x0 - r[3]
		b1 := x1 - r[4]
		b2 := x2 - r[5]
		sa := a0*a0 + a1*a1 + a2*a2
		sb := b0*b0 + b1*b1 + b2*b2
		if sa < bestD {
			best, bestD = j, sa
		}
		if sb < bestD {
			best, bestD = j+1, sb
		}
	}
	if j < k {
		r := flat[off : off+3 : off+3]
		d0 = x0 - r[0]
		d1 = x1 - r[1]
		d2 = x2 - r[2]
		if s := d0*d0 + d1*d1 + d2*d2; s < bestD {
			best, bestD = j, s
		}
	}
	return best, bestD
}

func nearestIndexFlat6(x, flat []float64, k int) (int, float64) {
	_ = x[5]
	x0, x1, x2, x3, x4, x5 := x[0], x[1], x[2], x[3], x[4], x[5]
	best := 0
	row := flat[0:6:6]
	d0 := x0 - row[0]
	d1 := x1 - row[1]
	d2 := x2 - row[2]
	d3 := x3 - row[3]
	d4 := x4 - row[4]
	d5 := x5 - row[5]
	bestD := d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5
	j, off := 1, 6
	for ; j+2 <= k; j, off = j+2, off+12 {
		r := flat[off : off+12 : off+12]
		a0 := x0 - r[0]
		a1 := x1 - r[1]
		a2 := x2 - r[2]
		a3 := x3 - r[3]
		a4 := x4 - r[4]
		a5 := x5 - r[5]
		b0 := x0 - r[6]
		b1 := x1 - r[7]
		b2 := x2 - r[8]
		b3 := x3 - r[9]
		b4 := x4 - r[10]
		b5 := x5 - r[11]
		sa := a0*a0 + a1*a1 + a2*a2 + a3*a3 + a4*a4 + a5*a5
		sb := b0*b0 + b1*b1 + b2*b2 + b3*b3 + b4*b4 + b5*b5
		if sa < bestD {
			best, bestD = j, sa
		}
		if sb < bestD {
			best, bestD = j+1, sb
		}
	}
	if j < k {
		r := flat[off : off+6 : off+6]
		d0 = x0 - r[0]
		d1 = x1 - r[1]
		d2 = x2 - r[2]
		d3 = x3 - r[3]
		d4 = x4 - r[4]
		d5 = x5 - r[5]
		if s := d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5; s < bestD {
			best, bestD = j, s
		}
	}
	return best, bestD
}
