package kmeans

import (
	"math"
	"testing"
	"testing/quick"

	"streamkm/internal/dataset"
	"streamkm/internal/rng"
	"streamkm/internal/vector"
)

// twoBlobs builds a weighted set with two tight, well-separated groups.
func twoBlobs(t *testing.T, perBlob int) *dataset.WeightedSet {
	t.Helper()
	r := rng.New(1)
	s := dataset.MustNewWeightedSet(2)
	for i := 0; i < perBlob; i++ {
		a := vector.Of(-10+r.NormFloat64()*0.1, r.NormFloat64()*0.1)
		b := vector.Of(10+r.NormFloat64()*0.1, r.NormFloat64()*0.1)
		if err := s.Add(dataset.WeightedPoint{Vec: a, Weight: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(dataset.WeightedPoint{Vec: b, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// randomWeighted builds n weighted 3-D points.
func randomWeighted(n int, seed uint64) *dataset.WeightedSet {
	r := rng.New(seed)
	s := dataset.MustNewWeightedSet(3)
	for i := 0; i < n; i++ {
		v := vector.Of(r.NormFloat64()*10, r.NormFloat64()*10, r.NormFloat64()*10)
		_ = s.Add(dataset.WeightedPoint{Vec: v, Weight: 0.5 + r.Float64()})
	}
	return s
}

func TestRunValidation(t *testing.T) {
	s := twoBlobs(t, 5)
	if _, err := Run(s, Config{K: 0}, rng.New(1)); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, err := Run(s, Config{K: 2, Epsilon: -1}, rng.New(1)); err == nil {
		t.Fatal("negative epsilon should error")
	}
	if _, err := Run(s, Config{K: 2, MaxIterations: -1}, rng.New(1)); err == nil {
		t.Fatal("negative max iterations should error")
	}
	if _, err := Run(dataset.MustNewWeightedSet(2), Config{K: 2}, rng.New(1)); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := Run(s, Config{K: s.Len() + 1}, rng.New(1)); err == nil {
		t.Fatal("K > N should error")
	}
}

func TestRunSeparatesBlobs(t *testing.T) {
	s := twoBlobs(t, 50)
	res, err := Run(s, Config{K: 2}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("two-blob problem should converge")
	}
	// centroids near (-10,0) and (10,0) in some order
	var left, right bool
	for _, c := range res.Centroids {
		if math.Abs(c[0]+10) < 1 {
			left = true
		}
		if math.Abs(c[0]-10) < 1 {
			right = true
		}
	}
	if !left || !right {
		t.Fatalf("centroids did not find both blobs: %v", res.Centroids)
	}
	if res.MSE > 0.1 {
		t.Fatalf("MSE = %g, want near within-blob variance", res.MSE)
	}
}

func TestResultConsistency(t *testing.T) {
	s := twoBlobs(t, 20)
	res, err := Run(s, Config{K: 2}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != s.Len() {
		t.Fatalf("assignments len %d != %d points", len(res.Assignments), s.Len())
	}
	// counts must agree with assignments, weights with point weights
	counts := make([]int, len(res.Centroids))
	weights := make([]float64, len(res.Centroids))
	var sse float64
	for i, a := range res.Assignments {
		if a < 0 || a >= len(res.Centroids) {
			t.Fatalf("assignment %d out of range", a)
		}
		counts[a]++
		weights[a] += s.At(i).Weight
		sse += vector.SquaredDistance(s.At(i).Vec, res.Centroids[a]) * s.At(i).Weight
	}
	for j := range counts {
		if counts[j] != res.Counts[j] {
			t.Fatalf("Counts[%d] = %d, recomputed %d", j, res.Counts[j], counts[j])
		}
		if math.Abs(weights[j]-res.Weights[j]) > 1e-9 {
			t.Fatalf("Weights[%d] = %g, recomputed %g", j, res.Weights[j], weights[j])
		}
	}
	if math.Abs(sse-res.SSE) > 1e-6*(1+sse) {
		t.Fatalf("SSE = %g, recomputed %g", res.SSE, sse)
	}
	if math.Abs(res.MSE*s.TotalWeight()-res.SSE) > 1e-6*(1+sse) {
		t.Fatalf("MSE*W = %g != SSE %g", res.MSE*s.TotalWeight(), res.SSE)
	}
	// every point is assigned to its true nearest centroid
	for i := range res.Assignments {
		j, _ := vector.NearestIndex(s.At(i).Vec, res.Centroids)
		di := vector.SquaredDistance(s.At(i).Vec, res.Centroids[res.Assignments[i]])
		dj := vector.SquaredDistance(s.At(i).Vec, res.Centroids[j])
		if di > dj+1e-12 {
			t.Fatalf("point %d assigned to non-nearest centroid", i)
		}
	}
}

func TestWeightsMatterInLloyd(t *testing.T) {
	// One cluster: points at 0 (weight 9) and 10 (weight 1). The single
	// centroid must converge to the weighted mean 1.
	s := dataset.MustNewWeightedSet(1)
	if err := s.Add(dataset.WeightedPoint{Vec: vector.Of(0), Weight: 9}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(dataset.WeightedPoint{Vec: vector.Of(10), Weight: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := RunFromCentroids(s, []vector.Vector{vector.Of(5)}, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-1) > 1e-9 {
		t.Fatalf("weighted centroid = %g, want 1", res.Centroids[0][0])
	}
}

func TestRunFromCentroidsValidation(t *testing.T) {
	s := twoBlobs(t, 5)
	if _, err := RunFromCentroids(s, []vector.Vector{vector.Of(0, 0)}, Config{K: 2}); err == nil {
		t.Fatal("centroid count mismatch should error")
	}
	if _, err := RunFromCentroids(s, []vector.Vector{vector.Of(0)}, Config{K: 1}); err == nil {
		t.Fatal("centroid dim mismatch should error")
	}
	if _, err := RunFromCentroids(dataset.MustNewWeightedSet(2),
		[]vector.Vector{vector.Of(0, 0)}, Config{K: 1}); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestRunFromCentroidsDoesNotMutateInitial(t *testing.T) {
	s := twoBlobs(t, 10)
	init := []vector.Vector{vector.Of(-1, 0), vector.Of(1, 0)}
	keep := []vector.Vector{init[0].Clone(), init[1].Clone()}
	if _, err := RunFromCentroids(s, init, Config{K: 2}); err != nil {
		t.Fatal(err)
	}
	if !init[0].Equal(keep[0]) || !init[1].Equal(keep[1]) {
		t.Fatal("RunFromCentroids mutated caller's initial centroids")
	}
}

func TestZeroTotalWeightErrors(t *testing.T) {
	s := dataset.MustNewWeightedSet(1)
	if err := s.Add(dataset.WeightedPoint{Vec: vector.Of(0), Weight: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFromCentroids(s, []vector.Vector{vector.Of(0)}, Config{K: 1}); err == nil {
		t.Fatal("all-zero weights should error")
	}
}

func TestEmptyClusterReseedFarthest(t *testing.T) {
	// Three coincident seeds on the same point force empty clusters.
	s := dataset.MustNewWeightedSet(1)
	for _, x := range []float64{0, 0.1, 10, 10.1, 20, 20.1} {
		if err := s.Add(dataset.WeightedPoint{Vec: vector.Of(x), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	init := []vector.Vector{vector.Of(0), vector.Of(0), vector.Of(0)}
	res, err := RunFromCentroids(s, init, Config{K: 3, EmptyPolicy: ReseedFarthest})
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, c := range res.Counts {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 3 {
		t.Fatalf("ReseedFarthest left %d non-empty clusters, want 3", nonEmpty)
	}
	if res.MSE > 0.01 {
		t.Fatalf("MSE = %g after reseed, want ~0.0025", res.MSE)
	}
}

func TestEmptyClusterDropPolicy(t *testing.T) {
	s := dataset.MustNewWeightedSet(1)
	for _, x := range []float64{0, 1} {
		if err := s.Add(dataset.WeightedPoint{Vec: vector.Of(x), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Second centroid is far away and never acquires points.
	init := []vector.Vector{vector.Of(0.5), vector.Of(1000)}
	res, err := RunFromCentroids(s, init, Config{K: 2, EmptyPolicy: DropEmpty})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[1] != 0 {
		t.Fatalf("far centroid acquired %d points", res.Counts[1])
	}
	if !res.Centroids[1].Equal(vector.Of(1000)) {
		t.Fatalf("DropEmpty moved the stale centroid to %v", res.Centroids[1])
	}
}

func TestMaxIterationsCap(t *testing.T) {
	s := twoBlobs(t, 50)
	res, err := Run(s, Config{K: 2, MaxIterations: 1}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("Iterations = %d with cap 1", res.Iterations)
	}
	if res.Converged {
		t.Fatal("cannot be marked converged after a single iteration")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	s := twoBlobs(t, 30)
	a, err := Run(s, Config{K: 4}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, Config{K: 4}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Centroids {
		if !a.Centroids[j].Equal(b.Centroids[j]) {
			t.Fatalf("same RNG seed, different centroids at %d", j)
		}
	}
	if a.MSE != b.MSE || a.Iterations != b.Iterations {
		t.Fatal("same RNG seed, different run statistics")
	}
}

func TestWeightedCentroidsOutput(t *testing.T) {
	s := twoBlobs(t, 25)
	res, err := Run(s, Config{K: 2}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	wc, err := res.WeightedCentroids(2)
	if err != nil {
		t.Fatal(err)
	}
	if wc.Len() == 0 || wc.Len() > 2 {
		t.Fatalf("weighted centroids len = %d", wc.Len())
	}
	// Sum of weights equals the number of points (the paper: sum w_ij = N_j).
	if math.Abs(wc.TotalWeight()-float64(s.Len())) > 1e-9 {
		t.Fatalf("total weight %g != N %d", wc.TotalWeight(), s.Len())
	}
}

func TestWeightedCentroidsSkipsStarved(t *testing.T) {
	res := &Result{
		Centroids: []vector.Vector{vector.Of(1), vector.Of(2)},
		Weights:   []float64{5, 0},
		Counts:    []int{5, 0},
	}
	wc, err := res.WeightedCentroids(1)
	if err != nil {
		t.Fatal(err)
	}
	if wc.Len() != 1 {
		t.Fatalf("starved centroid not skipped: len=%d", wc.Len())
	}
}

func TestRunRestartsPicksBest(t *testing.T) {
	s := twoBlobs(t, 40)
	rr, err := RunRestarts(s, Config{K: 2}, 10, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.MSEs) != 10 {
		t.Fatalf("MSEs len = %d", len(rr.MSEs))
	}
	for i, m := range rr.MSEs {
		if rr.Best.MSE > m+1e-15 {
			t.Fatalf("best MSE %g worse than run %d's %g", rr.Best.MSE, i, m)
		}
	}
	if rr.MSEs[rr.BestRun] != rr.Best.MSE {
		t.Fatalf("BestRun index inconsistent")
	}
	if rr.TotalIterations < 10 {
		t.Fatalf("TotalIterations = %d for 10 runs", rr.TotalIterations)
	}
	if _, err := RunRestarts(s, Config{K: 2}, 0, rng.New(1)); err == nil {
		t.Fatal("restarts=0 should error")
	}
}

// Property: MSE never increases across Lloyd iterations. We verify the
// endpoint form: running with a higher iteration cap never yields a worse
// MSE from the same start.
func TestLloydMonotoneProperty(t *testing.T) {
	f := func(seed uint16, kRaw uint8) bool {
		r := rng.New(uint64(seed))
		n := 60
		s := dataset.MustNewWeightedSet(2)
		for i := 0; i < n; i++ {
			v := vector.Of(r.NormFloat64()*5, r.NormFloat64()*5)
			if s.Add(dataset.WeightedPoint{Vec: v, Weight: 1 + r.Float64()}) != nil {
				return false
			}
		}
		k := int(kRaw)%8 + 1
		seeds, err := (RandomSeeder{}).Seed(s, k, rng.New(uint64(seed)+99))
		if err != nil {
			return false
		}
		short, err := RunFromCentroids(s, seeds, Config{K: k, MaxIterations: 2})
		if err != nil {
			return false
		}
		long, err := RunFromCentroids(s, seeds, Config{K: k, MaxIterations: 50})
		if err != nil {
			return false
		}
		return long.MSE <= short.MSE+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: k = N yields (near-)zero MSE — every point can be its own
// centroid.
func TestKEqualsNZeroMSE(t *testing.T) {
	r := rng.New(77)
	s := dataset.MustNewWeightedSet(3)
	for i := 0; i < 12; i++ {
		v := vector.Of(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
		if err := s.Add(dataset.WeightedPoint{Vec: v, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(s, Config{K: 12}, rng.New(78))
	if err != nil {
		t.Fatal(err)
	}
	if res.MSE > 1e-12 {
		t.Fatalf("K=N MSE = %g, want 0", res.MSE)
	}
}
