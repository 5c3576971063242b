// Package dataset provides the data substrate of the reproduction: point
// and weighted-point containers, the synthetic MISR-like Gaussian-mixture
// generator standing in for the paper's R-recreated grid cells, and the
// partition ("slicing") strategies the paper uses and proposes.
//
// The paper clusters 1°x1° grid cells of 6-dimensional satellite
// measurements. The original MISR HDF swaths are proprietary-scale NASA
// data; per DESIGN.md we substitute a Gaussian mixture per cell, which the
// paper itself approximated when it "used the R statistical package to
// recreate the files with the same distribution".
//
// Memory layout: both containers store their points in a single strided
// []float64 slab (point i occupies data[i*dim:(i+1)*dim]); WeightedSet
// keeps weights in a parallel column. At returns zero-copy views into the
// slab — see docs/ARCHITECTURE.md "Memory layout & hot path" for the
// aliasing rules.
package dataset

import (
	"errors"
	"fmt"

	"streamkm/internal/rng"
	"streamkm/internal/vector"
)

// Point is one D-dimensional observation.
type Point = vector.Vector

// WeightedPoint is a point with an attached weight. Partial k-means emits
// centroids weighted by their assigned-point counts; merge k-means
// consumes them.
type WeightedPoint struct {
	Vec    vector.Vector
	Weight float64
}

// Clone returns a deep copy of the weighted point.
func (w WeightedPoint) Clone() WeightedPoint {
	return WeightedPoint{Vec: w.Vec.Clone(), Weight: w.Weight}
}

// Set is an in-memory collection of points of a single dimensionality,
// stored contiguously. Adding a point copies its components into the flat
// slab. The zero value is unusable; use NewSet.
type Set struct {
	dim  int
	data []float64 // strided point storage, Len()*dim long
}

// NewSet returns an empty set for d-dimensional points. d must be
// positive.
func NewSet(d int) (*Set, error) {
	if d <= 0 {
		return nil, fmt.Errorf("dataset: dimension must be positive, got %d", d)
	}
	return &Set{dim: d}, nil
}

// MustNewSet is NewSet that panics on error, for tests and constants.
func MustNewSet(d int) *Set {
	s, err := NewSet(d)
	if err != nil {
		panic(err)
	}
	return s
}

// FromPoints builds a set from existing points, validating dimensions.
// Point contents are copied; the set does not alias the inputs.
func FromPoints(d int, pts []Point) (*Set, error) {
	s, err := NewSet(d)
	if err != nil {
		return nil, err
	}
	s.Grow(len(pts))
	for _, p := range pts {
		if err := s.Add(p); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dim returns the dimensionality of the set.
func (s *Set) Dim() int { return s.dim }

// Len returns the number of points.
func (s *Set) Len() int { return len(s.data) / s.dim }

// Grow reserves capacity for n additional points.
func (s *Set) Grow(n int) {
	need := len(s.data) + n*s.dim
	if cap(s.data) >= need {
		return
	}
	grown := make([]float64, len(s.data), need)
	copy(grown, s.data)
	s.data = grown
}

// Add appends a copy of p; it rejects dimension mismatches.
func (s *Set) Add(p Point) error {
	if len(p) != s.dim {
		return fmt.Errorf("dataset: point dim %d != set dim %d", len(p), s.dim)
	}
	s.data = append(s.data, p...)
	return nil
}

// AppendFlat bulk-appends points already laid out as consecutive
// dim-length runs of vals — the zero-conversion path for decoders that
// fill a flat buffer directly.
func (s *Set) AppendFlat(vals []float64) error {
	if len(vals)%s.dim != 0 {
		return fmt.Errorf("dataset: flat append of %d values is not a multiple of dim %d", len(vals), s.dim)
	}
	s.data = append(s.data, vals...)
	return nil
}

// At returns the i-th point as a zero-copy view into the flat slab.
// Callers must not mutate it, and the view's contents change if the set
// is shuffled (views are positional).
func (s *Set) At(i int) Point {
	off := i * s.dim
	return Point(s.data[off : off+s.dim : off+s.dim])
}

// Data returns the backing flat slab (Len()*Dim() values, point i at
// [i*dim:(i+1)*dim]). Read-only for callers; this is the hot-path input
// of the flat Lloyd kernels.
func (s *Set) Data() []float64 { return s.data }

// Points materializes per-point views into the flat slab. The returned
// slice is fresh on every call, but the views alias the set's storage:
// read-only, and stale after the set is appended to.
func (s *Set) Points() []Point {
	n := s.Len()
	views := make([]Point, n)
	for i := range views {
		views[i] = s.At(i)
	}
	return views
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{dim: s.dim, data: make([]float64, len(s.data))}
	copy(c.data, s.data)
	return c
}

// Shuffle randomizes point order in place. The paper assumes points of a
// grid cell "arrive sequentially, and in random order". The permutation
// consumes the RNG exactly as rng.Shuffle over Len() elements.
func (s *Set) Shuffle(r *rng.RNG) {
	tmp := make([]float64, s.dim)
	r.Shuffle(s.Len(), func(i, j int) {
		a := s.data[i*s.dim : (i+1)*s.dim]
		b := s.data[j*s.dim : (j+1)*s.dim]
		copy(tmp, a)
		copy(a, b)
		copy(b, tmp)
	})
}

// Reset truncates the set to zero points, keeping the allocated slab so
// a reused buffer (core.ChunkStream's chunk buffer) stops allocating
// once it has warmed up.
func (s *Set) Reset() { s.data = s.data[:0] }

// ErrEmptySet is returned by operations that need at least one point.
var ErrEmptySet = errors.New("dataset: empty set")

// Bounds returns the bounding box of the set.
func (s *Set) Bounds() (min, max vector.Vector, err error) {
	if s.Len() == 0 {
		return nil, nil, ErrEmptySet
	}
	box := vector.NewBoundingBox(s.dim)
	for i, n := 0, s.Len(); i < n; i++ {
		if err := box.Observe(s.At(i)); err != nil {
			return nil, nil, err
		}
	}
	min, err = box.Min()
	if err != nil {
		return nil, nil, err
	}
	max, err = box.Max()
	if err != nil {
		return nil, nil, err
	}
	return min, max, nil
}

// WeightedSet is a collection of weighted points of one dimensionality,
// the unit of exchange between the partial and merge operators. Points
// live in a strided flat slab with a parallel weight column.
type WeightedSet struct {
	dim     int
	data    []float64 // strided point storage, Len()*dim long
	weights []float64 // weight column, Len() long
}

// NewWeightedSet returns an empty weighted set for d dimensions.
func NewWeightedSet(d int) (*WeightedSet, error) {
	if d <= 0 {
		return nil, fmt.Errorf("dataset: dimension must be positive, got %d", d)
	}
	return &WeightedSet{dim: d}, nil
}

// MustNewWeightedSet panics on error; for tests.
func MustNewWeightedSet(d int) *WeightedSet {
	s, err := NewWeightedSet(d)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the dimensionality.
func (s *WeightedSet) Dim() int { return s.dim }

// Len returns the number of weighted points.
func (s *WeightedSet) Len() int { return len(s.weights) }

// Grow reserves capacity for n additional weighted points.
func (s *WeightedSet) Grow(n int) {
	if need := len(s.data) + n*s.dim; cap(s.data) < need {
		grown := make([]float64, len(s.data), need)
		copy(grown, s.data)
		s.data = grown
	}
	if need := len(s.weights) + n; cap(s.weights) < need {
		grown := make([]float64, len(s.weights), need)
		copy(grown, s.weights)
		s.weights = grown
	}
}

// Add appends a copy of the weighted point, validating dimension and
// weight.
func (s *WeightedSet) Add(p WeightedPoint) error {
	if len(p.Vec) != s.dim {
		return fmt.Errorf("dataset: point dim %d != set dim %d", len(p.Vec), s.dim)
	}
	if p.Weight < 0 {
		return fmt.Errorf("dataset: negative weight %g", p.Weight)
	}
	s.data = append(s.data, p.Vec...)
	s.weights = append(s.weights, p.Weight)
	return nil
}

// AppendFlat bulk-appends points laid out as consecutive dim-length runs
// of vals with one weight per point — the decoder fast path.
func (s *WeightedSet) AppendFlat(vals []float64, weights []float64) error {
	if len(vals) != len(weights)*s.dim {
		return fmt.Errorf("dataset: flat append of %d values does not match %d weights at dim %d",
			len(vals), len(weights), s.dim)
	}
	for i, w := range weights {
		if w < 0 {
			return fmt.Errorf("dataset: negative weight %g at index %d", w, i)
		}
	}
	s.data = append(s.data, vals...)
	s.weights = append(s.weights, weights...)
	return nil
}

// At returns the i-th weighted point; its Vec is a zero-copy view into
// the flat slab (read-only for callers).
func (s *WeightedSet) At(i int) WeightedPoint {
	return WeightedPoint{Vec: s.VecAt(i), Weight: s.weights[i]}
}

// VecAt returns the i-th point vector as a zero-copy view.
func (s *WeightedSet) VecAt(i int) vector.Vector {
	off := i * s.dim
	return vector.Vector(s.data[off : off+s.dim : off+s.dim])
}

// WeightAt returns the i-th weight.
func (s *WeightedSet) WeightAt(i int) float64 { return s.weights[i] }

// Data returns the backing flat point slab (read-only for callers).
func (s *WeightedSet) Data() []float64 { return s.data }

// Weights returns the backing weight column (read-only for callers).
func (s *WeightedSet) Weights() []float64 { return s.weights }

// Points materializes per-point views into the flat storage. Fresh slice
// per call; Vec fields alias the set's slab (read-only, stale after
// append).
func (s *WeightedSet) Points() []WeightedPoint {
	views := make([]WeightedPoint, s.Len())
	for i := range views {
		views[i] = s.At(i)
	}
	return views
}

// TotalWeight returns the sum of all weights. For partial k-means output
// this equals the number of points in the source partition.
func (s *WeightedSet) TotalWeight() float64 {
	var t float64
	for _, w := range s.weights {
		t += w
	}
	return t
}

// Append adds copies of all points of o into s.
func (s *WeightedSet) Append(o *WeightedSet) error {
	if o.dim != s.dim {
		return fmt.Errorf("dataset: cannot append dim %d into dim %d", o.dim, s.dim)
	}
	s.data = append(s.data, o.data...)
	s.weights = append(s.weights, o.weights...)
	return nil
}

// AppendUnweighted adds copies of all points of o with unit weight —
// the reuse-friendly form of Unweighted for callers that pool a plain
// set into an existing weighted buffer without a fresh allocation.
func (s *WeightedSet) AppendUnweighted(o *Set) error {
	if o.dim != s.dim {
		return fmt.Errorf("dataset: cannot append dim %d into dim %d", o.dim, s.dim)
	}
	s.data = append(s.data, o.data...)
	for i, n := 0, o.Len(); i < n; i++ {
		s.weights = append(s.weights, 1)
	}
	return nil
}

// Truncate drops every point past index n, keeping capacity — the
// inverse of AppendUnweighted for buffers that carry a transient tail.
func (s *WeightedSet) Truncate(n int) {
	s.data = s.data[:n*s.dim]
	s.weights = s.weights[:n]
}

// Reset truncates the weighted set to zero points, keeping capacity.
func (s *WeightedSet) Reset() { s.Truncate(0) }

// Unweighted converts a plain set into a weighted set with unit weights,
// so serial k-means and merge k-means share one weighted implementation.
// The point slab is copied, so the two sets do not alias.
func Unweighted(s *Set) *WeightedSet {
	w := &WeightedSet{
		dim:     s.dim,
		data:    make([]float64, len(s.data)),
		weights: make([]float64, s.Len()),
	}
	copy(w.data, s.data)
	for i := range w.weights {
		w.weights[i] = 1
	}
	return w
}
