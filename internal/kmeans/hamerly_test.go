package kmeans

import (
	"math"
	"testing"
	"testing/quick"

	"streamkm/internal/dataset"
	"streamkm/internal/rng"
	"streamkm/internal/vector"
)

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

func TestHamerlyMatchesNaiveFixpoint(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		s := randomWeighted(200, uint64(trial+1))
		seeds, err := (RandomSeeder{}).Seed(s, 7, rng.New(uint64(trial)+100))
		if err != nil {
			t.Fatal(err)
		}
		// Run the naive path essentially to fixpoint (minuscule epsilon).
		naive, err := RunFromCentroids(s, seeds, Config{K: 7, Epsilon: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := RunFromCentroids(s, seeds, Config{K: 7, Accelerate: true})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(naive.MSE-fast.MSE) > 1e-9*(1+naive.MSE) {
			t.Fatalf("trial %d: naive MSE %.12f != hamerly %.12f", trial, naive.MSE, fast.MSE)
		}
		for j := range naive.Centroids {
			if !naive.Centroids[j].ApproxEqual(fast.Centroids[j], 1e-8) {
				t.Fatalf("trial %d: centroid %d differs: %v vs %v",
					trial, j, naive.Centroids[j], fast.Centroids[j])
			}
		}
		for i := range naive.Assignments {
			if naive.Assignments[i] != fast.Assignments[i] {
				t.Fatalf("trial %d: point %d assigned %d vs %d",
					trial, i, naive.Assignments[i], fast.Assignments[i])
			}
		}
	}
}

func TestHamerlyConverges(t *testing.T) {
	s := randomWeighted(300, 42)
	res, err := Run(s, Config{K: 10, Accelerate: true}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("hamerly did not converge on easy data")
	}
	// Result internally consistent: counts/weights match assignments.
	counts := make([]int, 10)
	for _, a := range res.Assignments {
		counts[a]++
	}
	for j := range counts {
		if counts[j] != res.Counts[j] {
			t.Fatalf("Counts[%d] = %d, recomputed %d", j, res.Counts[j], counts[j])
		}
	}
}

func TestHamerlyEmptyClusterReseed(t *testing.T) {
	s := dataset.MustNewWeightedSet(1)
	for _, x := range []float64{0, 0.1, 10, 10.1, 20, 20.1} {
		if err := s.Add(dataset.WeightedPoint{Vec: vector.Of(x), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	init := []vector.Vector{vector.Of(0), vector.Of(0), vector.Of(0)}
	res, err := RunFromCentroids(s, init, Config{K: 3, Accelerate: true, EmptyPolicy: ReseedFarthest})
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
		t.Fatalf("reseed left %d non-empty clusters", nonEmpty)
	}
	if res.MSE > 0.01 {
		t.Fatalf("MSE = %g", res.MSE)
	}
}

func TestHamerlyWeightedMean(t *testing.T) {
	s := dataset.MustNewWeightedSet(1)
	_ = s.Add(dataset.WeightedPoint{Vec: vector.Of(0), Weight: 9})
	_ = s.Add(dataset.WeightedPoint{Vec: vector.Of(10), Weight: 1})
	res, err := RunFromCentroids(s, []vector.Vector{vector.Of(5)}, Config{K: 1, Accelerate: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-1) > 1e-9 {
		t.Fatalf("weighted centroid = %g, want 1", res.Centroids[0][0])
	}
}

func TestNearestTwoFlat(t *testing.T) {
	flat := []float64{0, 10, 3} // three 1-D centroids
	best, bd, sd := nearestTwoFlat([]float64{2}, flat, 3, 1)
	if best != 2 || math.Abs(bd-1) > 1e-12 {
		t.Fatalf("best = %d dist %g", best, bd)
	}
	if math.Abs(sd-2) > 1e-12 {
		t.Fatalf("second dist = %g", sd)
	}
	// single centroid: second is infinite
	b1, _, s1 := nearestTwoFlat([]float64{2}, flat[:1], 1, 1)
	if b1 != 0 || !math.IsInf(s1, 1) {
		t.Fatalf("single-centroid: %d %g", b1, s1)
	}
}

// Property: on random instances, accelerated and naive Lloyd reach
// fixpoints with (near-)identical MSE from the same seeds.
func TestHamerlyEquivalenceProperty(t *testing.T) {
	f := func(seed uint16, kRaw uint8) bool {
		k := int(kRaw)%9 + 2
		s := randomWeighted(120, uint64(seed)+1)
		seeds, err := (RandomSeeder{}).Seed(s, k, rng.New(uint64(seed)+999))
		if err != nil {
			return false
		}
		naive, err := RunFromCentroids(s, seeds, Config{K: k, Epsilon: 1e-300})
		if err != nil {
			return false
		}
		fast, err := RunFromCentroids(s, seeds, Config{K: k, Accelerate: true})
		if err != nil {
			return false
		}
		return math.Abs(naive.MSE-fast.MSE) <= 1e-9*(1+naive.MSE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLloydNaiveK40(b *testing.B)   { benchLloyd(b, false) }
func BenchmarkLloydHamerlyK40(b *testing.B) { benchLloyd(b, true) }

func benchLloyd(b *testing.B, accelerate bool) {
	s := randomWeighted(5000, 1)
	seeds, err := (RandomSeeder{}).Seed(s, 40, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var evals int64
	for i := 0; i < b.N; i++ {
		res, err := RunFromCentroids(s, seeds, Config{K: 40, Accelerate: accelerate})
		if err != nil {
			b.Fatal(err)
		}
		evals += res.DistanceEvals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "dist-evals/op")
}
