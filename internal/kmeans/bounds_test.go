package kmeans

import (
	"fmt"
	"math"
	"testing"

	"streamkm/internal/dataset"
	"streamkm/internal/rng"
	"streamkm/internal/vector"
)

// referenceLloyd is the plain full-scan Lloyd iteration — every point
// scans every centroid with vector.NearestIndexFlat in every sweep —
// that the bounded sweep must reproduce bit for bit. It keeps runNaive's
// arithmetic order: a sweep accumulates straight into the totals; an
// empty cluster reseeds onto the farthest cached point and folds the
// cache; a final pass reports the state.
func referenceLloyd(points *dataset.WeightedSet, seeds []vector.Vector, cfg Config) *Result {
	cfg = cfg.withDefaults()
	n, dim, k := points.Len(), points.Dim(), len(seeds)
	data, wts := points.Data(), points.Weights()
	cent := make([]float64, 0, k*dim)
	for _, c := range seeds {
		cent = append(cent, c...)
	}
	assign := make([]int, n)
	dists := make([]float64, n)
	counts := make([]int, k)
	weights := make([]float64, k)
	sums := make([]float64, k*dim)

	sweep := func() float64 {
		clear(counts)
		clear(weights)
		clear(sums)
		var sse float64
		for i := 0; i < n; i++ {
			x := data[i*dim : (i+1)*dim]
			j, d := vector.NearestIndexFlat(x, cent, k, dim)
			assign[i], dists[i] = j, d
			w := wts[i]
			counts[j]++
			weights[j] += w
			for t, xv := range x {
				sums[j*dim+t] += w * xv
			}
			sse += d * w
		}
		return sse
	}
	reseed := func(j int) {
		far, farD := -1, -1.0
		for i, d := range dists {
			if wts[i] == 0 {
				continue
			}
			if dw := d * wts[i]; dw > farD {
				far, farD = i, dw
			}
		}
		if far < 0 {
			return
		}
		c := cent[j*dim : (j+1)*dim]
		copy(c, data[far*dim:(far+1)*dim])
		dists[far] = 0
		for i := 0; i < n; i++ {
			if d := vector.SquaredDistanceFloats(data[i*dim:(i+1)*dim], c); d < dists[i] {
				dists[i] = d
			}
		}
	}

	totalWeight := points.TotalWeight()
	res := &Result{}
	prevMSE := 0.0
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		sse := sweep()
		for j := 0; j < k; j++ {
			if weights[j] > 0 {
				for t := 0; t < dim; t++ {
					cent[j*dim+t] = sums[j*dim+t] / weights[j]
				}
			} else if cfg.EmptyPolicy == ReseedFarthest {
				reseed(j)
			}
		}
		mse := sse / totalWeight
		res.Iterations, res.MSE, res.SSE = iter, mse, sse
		if iter > 1 {
			res.DeltaMSE = prevMSE - mse
			if res.DeltaMSE <= cfg.Epsilon {
				res.Converged = true
				break
			}
		}
		prevMSE = mse
	}

	clear(counts)
	clear(weights)
	var sse float64
	for i := 0; i < n; i++ {
		j, d := vector.NearestIndexFlat(data[i*dim:(i+1)*dim], cent, k, dim)
		assign[i] = j
		counts[j]++
		weights[j] += wts[i]
		sse += d * wts[i]
	}
	for j := 0; j < k; j++ {
		res.Centroids = append(res.Centroids, vector.Vector(cent[j*dim:(j+1)*dim]))
	}
	res.Assignments = assign
	res.Counts = counts
	res.Weights = weights
	res.SSE = sse
	res.MSE = sse / totalWeight
	return res
}

// diffResults reports the first output bit on which got differs from
// want: every centroid component, weight, count, assignment, the
// MSE/SSE/ΔMSE bit patterns, Iterations and Converged.
func diffResults(got, want *Result) error {
	bits := func(name string, g, w float64) error {
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("%s: got %v (%#x), want %v (%#x)", name, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		return nil
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		return fmt.Errorf("iterations/converged: got %d/%v, want %d/%v",
			got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for _, f := range []struct {
		name string
		g, w float64
	}{{"MSE", got.MSE, want.MSE}, {"SSE", got.SSE, want.SSE}, {"DeltaMSE", got.DeltaMSE, want.DeltaMSE}} {
		if err := bits(f.name, f.g, f.w); err != nil {
			return err
		}
	}
	if len(got.Centroids) != len(want.Centroids) {
		return fmt.Errorf("%d centroids, want %d", len(got.Centroids), len(want.Centroids))
	}
	for j := range want.Centroids {
		for t := range want.Centroids[j] {
			if err := bits(fmt.Sprintf("centroid %d[%d]", j, t), got.Centroids[j][t], want.Centroids[j][t]); err != nil {
				return err
			}
		}
		if err := bits(fmt.Sprintf("weight %d", j), got.Weights[j], want.Weights[j]); err != nil {
			return err
		}
		if got.Counts[j] != want.Counts[j] {
			return fmt.Errorf("count %d: got %d, want %d", j, got.Counts[j], want.Counts[j])
		}
	}
	for i := range want.Assignments {
		if got.Assignments[i] != want.Assignments[i] {
			return fmt.Errorf("assignment %d: got %d, want %d", i, got.Assignments[i], want.Assignments[i])
		}
	}
	return nil
}

// checkAgainstReference runs the production Lloyd path from seeds and
// requires the result to match the reference bit for bit.
func checkAgainstReference(t *testing.T, name string, pts *dataset.WeightedSet, seeds []vector.Vector, cfg Config) {
	t.Helper()
	cfg.K = len(seeds)
	got, err := RunFromCentroids(pts, seeds, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := diffResults(got, referenceLloyd(pts, seeds, cfg)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// mixture draws n points around k/2+1 gaussian centers in dim
// dimensions, with unit weights or weights in [0.5, 1.5).
func mixture(n, dim, k int, weighted bool, seed uint64) *dataset.WeightedSet {
	r := rng.New(seed)
	centers := make([][]float64, k/2+1)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for t := range centers[c] {
			centers[c][t] = r.NormFloat64() * 20
		}
	}
	s := dataset.MustNewWeightedSet(dim)
	for i := 0; i < n; i++ {
		c := centers[r.Intn(len(centers))]
		v := make(vector.Vector, dim)
		for t := range v {
			v[t] = c[t] + r.NormFloat64()*3
		}
		w := 1.0
		if weighted {
			w = 0.5 + r.Float64()
		}
		_ = s.Add(dataset.WeightedPoint{Vec: v, Weight: w})
	}
	return s
}

// TestBoundedSweepMatchesReference is the differential suite: across
// dimensions (specialized and generic kernels), k, weighting and
// epsilon, the bounded sweep is bit-identical to full scans.
func TestBoundedSweepMatchesReference(t *testing.T) {
	for _, dim := range []int{2, 3, 6, 7, 8} {
		for _, k := range []int{1, 2, 8, 40} {
			for _, weighted := range []bool{false, true} {
				seed := uint64(dim*1000 + k*10)
				if weighted {
					seed++
				}
				pts := mixture(300, dim, k, weighted, seed)
				seeds, err := (RandomSeeder{}).Seed(pts, k, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range []float64{0, 1e-300} {
					name := fmt.Sprintf("dim=%d k=%d weighted=%v eps=%g", dim, k, weighted, eps)
					checkAgainstReference(t, name, pts, seeds, Config{Epsilon: eps})
				}
			}
		}
	}
}

// gridSet places n points on a small integer grid, so many coincide and
// many distances tie exactly.
func gridSet(n, dim, side int, seed uint64) *dataset.WeightedSet {
	r := rng.New(seed)
	s := dataset.MustNewWeightedSet(dim)
	for i := 0; i < n; i++ {
		v := make(vector.Vector, dim)
		for t := range v {
			v[t] = float64(r.Intn(side))
		}
		_ = s.Add(dataset.WeightedPoint{Vec: v, Weight: float64(1 + r.Intn(3))})
	}
	return s
}

// TestBoundedSweepTiesAndDuplicates covers exact distance ties,
// duplicate points and coincident seeds, where the index-order
// tie-break decides every assignment.
func TestBoundedSweepTiesAndDuplicates(t *testing.T) {
	for _, dim := range []int{2, 3, 6} {
		pts := gridSet(200, dim, 3, uint64(dim))
		seeds, err := (RandomSeeder{}).Seed(pts, 8, rng.New(uint64(dim)+7))
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, fmt.Sprintf("grid dim=%d", dim), pts, seeds, Config{Epsilon: 1e-300})
		// Coincident seeds: the same point three times, twice more.
		coincident := []vector.Vector{pts.VecAt(0), pts.VecAt(0), pts.VecAt(0), pts.VecAt(5), pts.VecAt(5)}
		for _, policy := range []EmptyClusterPolicy{ReseedFarthest, DropEmpty} {
			checkAgainstReference(t, fmt.Sprintf("coincident dim=%d policy=%d", dim, policy),
				pts, coincident, Config{EmptyPolicy: policy})
		}
	}
}

// TestBoundedSweepMoreClustersThanDistinctPoints forces empty clusters
// every iteration: k above the number of distinct points, under both
// policies (ReseedFarthest invalidates the bounds on every reseed).
func TestBoundedSweepMoreClustersThanDistinctPoints(t *testing.T) {
	pts := dataset.MustNewWeightedSet(3)
	for i := 0; i < 30; i++ {
		v := vector.Of(float64(i%5), float64(i%5)*2, -float64(i%5))
		_ = pts.Add(dataset.WeightedPoint{Vec: v, Weight: float64(1 + i%4)})
	}
	seeds := make([]vector.Vector, 8)
	for j := range seeds {
		seeds[j] = vector.Of(float64(j), float64(j)/2, 0.25*float64(j))
	}
	for _, policy := range []EmptyClusterPolicy{ReseedFarthest, DropEmpty} {
		checkAgainstReference(t, fmt.Sprintf("policy=%d", policy), pts, seeds, Config{EmptyPolicy: policy})
	}
}

// TestBoundedSweepOverflow uses coordinates near ±1e154, whose squared
// distances across the sign split overflow to +Inf: capped bounds and
// fail-closed comparisons must keep the answer exact.
func TestBoundedSweepOverflow(t *testing.T) {
	r := rng.New(9)
	for _, dim := range []int{2, 6} {
		pts := dataset.MustNewWeightedSet(dim)
		for i := 0; i < 120; i++ {
			v := make(vector.Vector, dim)
			for t := range v {
				sign := 1.0
				if r.Intn(2) == 0 {
					sign = -1
				}
				v[t] = sign * 1e154 * (1 + r.Float64())
			}
			_ = pts.Add(dataset.WeightedPoint{Vec: v, Weight: 0.5 + r.Float64()})
		}
		for _, k := range []int{1, 2, 8} {
			seeds, err := (RandomSeeder{}).Seed(pts, k, rng.New(uint64(k)))
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, fmt.Sprintf("overflow dim=%d k=%d", dim, k), pts, seeds, Config{MaxIterations: 30})
		}
	}
}

// Golden distance-evaluation count of the goldenRestartRun naive input
// (5 restarts, 91 iterations, n=300, k=6). Full scans would spend
// (91+5)·300·6 = 172800.
const goldenNaiveDistanceEvals = 71769

// TestDistanceEvalsGoldenNaive pins the exact count and the bound it
// must stay under: half of what full scans spend.
func TestDistanceEvalsGoldenNaive(t *testing.T) {
	for _, parallel := range []int{0, 4} {
		rr := goldenRestartRun(t, parallel)
		if rr.DistanceEvals != goldenNaiveDistanceEvals {
			t.Fatalf("Parallel=%d: DistanceEvals = %d, want %d", parallel, rr.DistanceEvals, goldenNaiveDistanceEvals)
		}
		full := int64(rr.TotalIterations+goldenRestarts) * 300 * 6
		if 2*rr.DistanceEvals > full {
			t.Fatalf("DistanceEvals = %d, above half of the full-scan %d", rr.DistanceEvals, full)
		}
	}
}

// TestNearestTwoFlat checks the sweep's full scan: the nearest
// centroid, its squared distance, and the lower bound reset to the
// second-nearest distance, capped at maxDist when there is none.
func TestNearestTwoFlat(t *testing.T) {
	sc := newScratch(1, 3, 1)
	copy(sc.cent, []float64{0, 10, 3}) // three 1-D centroids
	best, d, evals := sc.scan(0, []float64{2})
	if best != 2 || d != 1 || evals != 3 {
		t.Fatalf("scan = (%d, %g, %d), want (2, 1, 3)", best, d, evals)
	}
	if sc.lower[0] != 2 {
		t.Fatalf("lower bound = %g, want 2", sc.lower[0])
	}
	one := newScratch(1, 1, 1)
	if b, _, _ := one.scan(0, []float64{2}); b != 0 || one.lower[0] != maxDist {
		t.Fatalf("single centroid: best %d, lower bound %g, want 0, %g", b, one.lower[0], maxDist)
	}
}

// BenchmarkLloydNaiveK40 runs one Lloyd problem at the paper's K and
// reports its distance evaluations next to the time.
func BenchmarkLloydNaiveK40(b *testing.B) {
	s := randomWeighted(5000, 1)
	seeds, err := (RandomSeeder{}).Seed(s, 40, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var evals int64
	for i := 0; i < b.N; i++ {
		res, err := RunFromCentroids(s, seeds, Config{K: 40})
		if err != nil {
			b.Fatal(err)
		}
		evals += res.DistanceEvals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "dist-evals/op")
}

// fuzzReader hands out the fuzz input byte by byte, then zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) float() float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(r.next())
	}
	return math.Float64frombits(u)
}

// FuzzLloydBounded decodes a small Lloyd problem — shape, empty policy,
// coordinates drawn from a tie-heavy integer grid, the ±1e154 overflow
// band or raw float64 bits (NaN, ±Inf, subnormals), weights including
// zero, and seeds picked from the points (so they coincide) — and
// requires the production path to match referenceLloyd bit for bit.
func FuzzLloydBounded(f *testing.F) {
	f.Add([]byte{2, 20, 3, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{5, 40, 8, 1, 1, 0, 200, 210, 220, 250, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := &fuzzReader{b: b}
		dim := 1 + int(r.next()%8)
		n := 1 + int(r.next()%48)
		k := 1 + int(r.next()%12)
		r.next() // once a worker count; still read so the corpus decodes unchanged
		cfg := Config{
			EmptyPolicy:   EmptyClusterPolicy(r.next() % 2),
			MaxIterations: 1 + int(r.next()%40),
		}
		if r.next()%2 == 1 {
			cfg.Epsilon = 1e-300
		}
		pts := dataset.MustNewWeightedSet(dim)
		weightTable := []float64{1, 1, 0.5, 2, 0, 3.25, 1e-3, 7}
		for i := 0; i < n; i++ {
			v := make(vector.Vector, dim)
			for t := range v {
				switch c := r.next(); {
				case c < 192:
					v[t] = float64(int(c%16) - 8)
				case c < 224:
					v[t] = float64(int(c)-208) * 1e153
				default:
					v[t] = r.float()
				}
			}
			if err := pts.Add(dataset.WeightedPoint{Vec: v, Weight: weightTable[r.next()%8]}); err != nil {
				t.Skip()
			}
		}
		if !(pts.TotalWeight() > 0) {
			t.Skip()
		}
		seeds := make([]vector.Vector, k)
		for j := range seeds {
			seeds[j] = pts.VecAt(int(r.next()) % n).Clone()
		}
		cfg.K = k
		got, err := RunFromCentroids(pts, seeds, cfg)
		if err != nil {
			t.Skip()
		}
		if err := diffResults(got, referenceLloyd(pts, seeds, cfg)); err != nil {
			t.Fatal(err)
		}
	})
}
