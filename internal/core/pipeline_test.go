package core

import (
	"math"
	"testing"

	"streamkm/internal/dataset"
	"streamkm/internal/metrics"
	"streamkm/internal/rng"
)

func TestOptionsValidation(t *testing.T) {
	cell := blobCell(t, 4, 200, 1)
	cases := []struct {
		name string
		opts Options
	}{
		{"no K", Options{Restarts: 1, Splits: 2}},
		{"no restarts", Options{K: 4, Splits: 2}},
		{"neither splits nor budget", Options{K: 4, Restarts: 1}},
		{"both splits and budget", Options{K: 4, Restarts: 1, Splits: 2, ChunkPoints: 50}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Cluster(cell, tc.opts); err == nil {
				t.Fatalf("Cluster should reject %s", tc.name)
			}
		})
	}
}

func TestClusterBasic(t *testing.T) {
	// k is chosen well above the latent blob count, as in the paper
	// (k = 40 over cells with fewer dominant modes): with k ≈ blobs,
	// heaviest-weight merge seeding can trap Lloyd in a local minimum.
	cell := blobCell(t, 6, 600, 5)
	res, err := Cluster(cell, Options{K: 12, Restarts: 3, Splits: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 4 {
		t.Fatalf("Partitions = %d", res.Partitions)
	}
	if len(res.Centroids) != 12 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	var w float64
	for _, x := range res.Weights {
		w += x
	}
	if math.Abs(w-600) > 1e-6 {
		t.Fatalf("total merged weight %g != N", w)
	}
	if res.PartialTime <= 0 || res.Elapsed <= 0 {
		t.Fatal("timings not recorded")
	}
	if res.PartialIterations <= 0 || res.MergeIterations <= 0 {
		t.Fatal("iteration counts not recorded")
	}
	if res.PointMSE <= 0 {
		t.Fatal("PointMSE not computed")
	}
	// On well-separated blobs the final centroids must explain the data
	// well: PointMSE close to within-blob variance (0.25 per dim * 3).
	if res.PointMSE > 3 {
		t.Fatalf("PointMSE = %g, clustering failed", res.PointMSE)
	}
}

func TestClusterChunkBudgetMode(t *testing.T) {
	cell := blobCell(t, 4, 500, 9)
	res, err := Cluster(cell, Options{K: 4, Restarts: 2, ChunkPoints: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 500 points / 120 budget = 5 chunks (ceil)
	if res.Partitions != 5 {
		t.Fatalf("Partitions = %d, want 5", res.Partitions)
	}
}

func TestClusterDeterministicBySeed(t *testing.T) {
	cell := blobCell(t, 5, 400, 13)
	opts := Options{K: 5, Restarts: 2, Splits: 4, Seed: 99}
	a, err := Cluster(cell, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(cell, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.MergeMSE != b.MergeMSE || a.PointMSE != b.PointMSE {
		t.Fatalf("same seed, different MSE: %g/%g vs %g/%g",
			a.MergeMSE, a.PointMSE, b.MergeMSE, b.PointMSE)
	}
	for i := range a.Centroids {
		if !a.Centroids[i].Equal(b.Centroids[i]) {
			t.Fatalf("centroid %d differs", i)
		}
	}
}

// TestSliceCellRule pins the shared slicing rule: the slicing draws
// from the stream first, then chunk i takes the i-th Split and the
// merge the next one; a chunk budget that yields the same count cuts
// the same chunks.
func TestSliceCellRule(t *testing.T) {
	cell := blobCell(t, 5, 500, 17)
	want := rng.New(55)
	chunks, err := dataset.Split(cell, 5, dataset.SplitRandom, want)
	if err != nil {
		t.Fatal(err)
	}
	bySplits, err := SliceCell(cell, 5, 0, dataset.SplitRandom, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	byBudget, err := SliceCell(cell, 0, 100, dataset.SplitRandom, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		next := want.Split().Uint64()
		for _, got := range []*SlicedCell{bySplits, byBudget} {
			if len(got.Chunks) != len(chunks) || !got.Chunks[i].At(0).Equal(c.At(0)) || got.ChunkRNGs[i].Uint64() != next {
				t.Fatalf("chunk %d does not follow the rule", i)
			}
		}
	}
	merge := want.Split().Uint64()
	if bySplits.MergeRNG.Uint64() != merge || byBudget.MergeRNG.Uint64() != merge {
		t.Fatal("merge RNG does not follow the rule")
	}
}

func TestClusterSplitsLargerThanCellErrors(t *testing.T) {
	cell := blobCell(t, 2, 10, 21)
	if _, err := Cluster(cell, Options{K: 2, Restarts: 1, Splits: 11, Seed: 1}); err == nil {
		t.Fatal("splits > N should error")
	}
}

func TestClusterKTooLargeForChunksErrors(t *testing.T) {
	// 100 points in 10 splits = 10-point chunks; k=20 cannot be seeded.
	cell := blobCell(t, 2, 100, 23)
	if _, err := Cluster(cell, Options{K: 20, Restarts: 1, Splits: 10, Seed: 1}); err == nil {
		t.Fatal("k > chunk size should error")
	}
}

func TestMergeMSEComparableToSerialDefinition(t *testing.T) {
	// Sanity link between the two metrics: for a perfectly clusterable
	// cell, both the paper's E_pm-based MSE and the point MSE should be
	// small and of the same order.
	cell := blobCell(t, 4, 800, 29)
	res, err := Cluster(cell, Options{K: 4, Restarts: 5, Splits: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if res.MergeMSE > res.PointMSE {
		// Merge MSE measures centroid-to-centroid spread, which is
		// strictly tighter than point spread on clean data.
		t.Fatalf("MergeMSE %g > PointMSE %g on clean blobs", res.MergeMSE, res.PointMSE)
	}
	direct, err := metrics.MSE(cell, res.Centroids)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct-res.PointMSE) > 1e-12 {
		t.Fatalf("PointMSE %g != recomputed %g", res.PointMSE, direct)
	}
}

func TestClusterSlicingStrategies(t *testing.T) {
	cell := blobCell(t, 4, 400, 37)
	for _, strat := range []dataset.SplitStrategy{dataset.SplitRandom, dataset.SplitSalami, dataset.SplitSpatial} {
		res, err := Cluster(cell, Options{K: 4, Restarts: 2, Splits: 4, Strategy: strat, Seed: 41})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(res.Centroids) != 4 {
			t.Fatalf("%v: %d centroids", strat, len(res.Centroids))
		}
	}
}

func TestClusterIncrementalMergeMode(t *testing.T) {
	cell := blobCell(t, 4, 400, 43)
	res, err := Cluster(cell, Options{K: 4, Restarts: 2, Splits: 4, MergeMode: MergeIncremental, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 4 {
		t.Fatalf("%d centroids", len(res.Centroids))
	}
}
