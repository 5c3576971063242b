package core

import (
	"math"
	"testing"

	"streamkm/internal/dataset"
	"streamkm/internal/rng"
)

func TestECVQPartialValidation(t *testing.T) {
	chunk := blobCell(t, 4, 200, 1)
	if _, err := ECVQPartial(chunk, ECVQPartialConfig{MaxK: 0}, rng.New(1)); err == nil {
		t.Fatal("MaxK=0 should error")
	}
	if _, err := ECVQPartial(chunk, ECVQPartialConfig{MaxK: 5, Lambda: -1}, rng.New(1)); err == nil {
		t.Fatal("negative lambda should error")
	}
	if _, err := ECVQPartial(dataset.MustNewSet(3), ECVQPartialConfig{MaxK: 5}, rng.New(1)); err == nil {
		t.Fatal("empty chunk should error")
	}
}

func TestECVQPartialAdaptsK(t *testing.T) {
	chunk := blobCell(t, 4, 400, 2)
	res, err := ECVQPartial(chunk, ECVQPartialConfig{MaxK: 30, Lambda: 50, Restarts: 3}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 30 || res.K < 1 {
		t.Fatalf("K = %d", res.K)
	}
	// With a meaningful rate penalty on 4-blob data, the codebook must
	// shrink below MaxK.
	if res.K == 30 {
		t.Fatalf("lambda=50 did not prune the codebook (K=%d)", res.K)
	}
	if res.Points != 400 {
		t.Fatalf("Points = %d", res.Points)
	}
	// mass conserved
	if math.Abs(res.Centroids.TotalWeight()-400) > 1e-9 {
		t.Fatalf("weight %g, want 400", res.Centroids.TotalWeight())
	}
}

func TestECVQPartialRestartsKeepBest(t *testing.T) {
	chunk := blobCell(t, 6, 300, 4)
	one, err := ECVQPartial(chunk, ECVQPartialConfig{MaxK: 12, Lambda: 10, Restarts: 1}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	many, err := ECVQPartial(chunk, ECVQPartialConfig{MaxK: 12, Lambda: 10, Restarts: 8}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if many.Cost > one.Cost+1e-12 {
		t.Fatalf("best-of-8 cost %g worse than best-of-1 %g", many.Cost, one.Cost)
	}
}

func TestClusterWithECVQSummarizerEndToEnd(t *testing.T) {
	cell := blobCell(t, 5, 600, 6)
	res, err := Cluster(cell, Options{K: 10, Restarts: 2, Splits: 4, Seed: 7,
		Summarizer: SummarizerECVQ, ECVQMaxK: 20, ECVQLambda: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 10 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	var w float64
	for _, x := range res.Weights {
		w += x
	}
	if math.Abs(w-600) > 1e-6 {
		t.Fatalf("merged weight %g", w)
	}
	if res.PointMSE > 5 {
		t.Fatalf("PointMSE = %g", res.PointMSE)
	}
	if res.Partitions != 4 {
		t.Fatalf("Partitions = %d", res.Partitions)
	}
}

func TestClusterWithECVQSummarizerValidation(t *testing.T) {
	cell := blobCell(t, 4, 200, 8)
	if _, err := Cluster(cell, Options{K: 0, Restarts: 1, Splits: 2,
		Summarizer: SummarizerECVQ, ECVQMaxK: 5}); err == nil {
		t.Fatal("bad opts should error")
	}
	if _, err := Cluster(cell, Options{K: 4, Restarts: 1, Splits: 2,
		Summarizer: SummarizerECVQ, ECVQLambda: -1}); err == nil {
		t.Fatal("bad ECVQ cfg should error")
	}
}
