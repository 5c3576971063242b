package streamkm

import (
	"context"
	"math"
	"testing"
)

// blobPoints builds points around well-separated 2-D centers.
func blobPoints(n int) [][]float64 {
	centers := [][2]float64{{-50, 0}, {50, 0}, {0, 80}}
	pts := make([][]float64, 0, n)
	// Cheap deterministic jitter without package imports.
	state := uint64(12345)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/(1<<53) - 0.5
	}
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		pts = append(pts, []float64{c[0] + next(), c[1] + next()})
	}
	return pts
}

func TestClusterBasic(t *testing.T) {
	pts := blobPoints(600)
	res, err := Cluster(pts, Options{K: 3, Restarts: 5, Splits: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	if !res.HasPointMSE {
		t.Fatal("in-memory run should report PointMSE")
	}
	if res.PointMSE > 1 {
		t.Fatalf("PointMSE = %g on clean blobs", res.PointMSE)
	}
	var w float64
	for _, x := range res.Weights {
		w += x
	}
	if math.Abs(w-600) > 1e-6 {
		t.Fatalf("weights sum %g", w)
	}
	if res.Partitions != 4 {
		t.Fatalf("Partitions = %d", res.Partitions)
	}
}

func TestClusterDefaults(t *testing.T) {
	// No Splits/ChunkPoints: defaults to 5 splits, 10 restarts.
	res, err := Cluster(blobPoints(500), Options{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 5 {
		t.Fatalf("default Partitions = %d, want 5", res.Partitions)
	}
}

func TestClusterValidation(t *testing.T) {
	pts := blobPoints(100)
	if _, err := Cluster(pts, Options{}); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, err := Cluster(nil, Options{K: 2}); err == nil {
		t.Fatal("no points should error")
	}
	if _, err := Cluster(pts, Options{K: 2, Splits: 2, ChunkPoints: 10}); err == nil {
		t.Fatal("both Splits and ChunkPoints should error")
	}
	if _, err := Cluster(pts, Options{K: 2, Strategy: "zigzag"}); err == nil {
		t.Fatal("unknown strategy should error")
	}
	if _, err := Cluster(pts, Options{K: 2, MergeMode: "eager"}); err == nil {
		t.Fatal("unknown merge mode should error")
	}
	ragged := [][]float64{{1, 2}, {1}}
	if _, err := Cluster(ragged, Options{K: 1, Splits: 1}); err == nil {
		t.Fatal("ragged points should error")
	}
}

func TestClusterContextMatchesCluster(t *testing.T) {
	pts := blobPoints(400)
	opts := Options{K: 3, Restarts: 3, Splits: 4, Seed: 7, Parallelism: 3}
	a, err := Cluster(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterContext(context.Background(), pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.MergeMSE-b.MergeMSE) > 1e-12 {
		t.Fatalf("parallel result differs: %g vs %g", a.MergeMSE, b.MergeMSE)
	}
	for i := range a.Centroids {
		for d := range a.Centroids[i] {
			if a.Centroids[i][d] != b.Centroids[i][d] {
				t.Fatalf("centroid %d differs", i)
			}
		}
	}
}

func TestClusterContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ClusterContext(ctx, blobPoints(5000), Options{K: 3, Splits: 10, Seed: 1}); err == nil {
		t.Fatal("cancelled context should error")
	}
}

func TestStreamClustererBasic(t *testing.T) {
	// k above the 3 latent blobs: with k == blob count the heaviest-
	// weight merge seeding can start all seeds in one blob and Lloyd
	// stays in that local minimum — the paper avoids this regime by
	// using k = 40 over cells with fewer dominant modes.
	sc, err := NewStreamClusterer(2, Options{K: 6, Restarts: 3, ChunkPoints: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pts := blobPoints(1000)
	for _, p := range pts {
		if err := sc.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	if sc.Pushed() != 1000 {
		t.Fatalf("Pushed = %d", sc.Pushed())
	}
	// 1000/150 = 6 full chunks before Finish
	if sc.Partials() != 6 {
		t.Fatalf("Partials = %d", sc.Partials())
	}
	res, err := sc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 6 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	if res.HasPointMSE {
		t.Fatal("stream run cannot have PointMSE")
	}
	// 6 full + 1 tail partial
	if res.Partitions != 7 {
		t.Fatalf("Partitions = %d", res.Partitions)
	}
	var w float64
	for _, x := range res.Weights {
		w += x
	}
	if math.Abs(w-1000) > 1e-6 {
		t.Fatalf("weights sum %g, want 1000 (no data dropped)", w)
	}
	// External quality check with the kept raw points.
	mse, err := MSEOf(pts, res.Centroids)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 1 {
		t.Fatalf("stream clustering MSE = %g", mse)
	}
}

func TestStreamClustererSmallTailKept(t *testing.T) {
	sc, err := NewStreamClusterer(2, Options{K: 3, Restarts: 2, ChunkPoints: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 102 points: one full chunk + 2-point tail below K.
	for _, p := range blobPoints(102) {
		if err := sc.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var w float64
	for _, x := range res.Weights {
		w += x
	}
	if math.Abs(w-102) > 1e-6 {
		t.Fatalf("tail points dropped: weight %g", w)
	}
}

func TestStreamClustererValidation(t *testing.T) {
	if _, err := NewStreamClusterer(2, Options{K: 3, Splits: 2, ChunkPoints: 100}); err == nil {
		t.Fatal("Splits should be rejected")
	}
	if _, err := NewStreamClusterer(2, Options{K: 3}); err == nil {
		t.Fatal("missing ChunkPoints should error")
	}
	if _, err := NewStreamClusterer(2, Options{K: 30, ChunkPoints: 10}); err == nil {
		t.Fatal("ChunkPoints < K should error")
	}
	sc, err := NewStreamClusterer(2, Options{K: 2, Restarts: 1, ChunkPoints: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Push([]float64{1}); err == nil {
		t.Fatal("wrong-dim push should error")
	}
	if _, err := sc.Finish(); err == nil {
		t.Fatal("Finish with no data should error")
	}
	if _, err := sc.Finish(); err == nil {
		t.Fatal("double Finish should error")
	}
	if err := sc.Push([]float64{1, 2}); err == nil {
		t.Fatal("Push after Finish should error")
	}
}

func TestStreamClustererTooFewPoints(t *testing.T) {
	sc, err := NewStreamClusterer(2, Options{K: 5, Restarts: 1, ChunkPoints: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sc.Push([]float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.Finish(); err == nil {
		t.Fatal("3 points with K=5 should error")
	}
}

func TestStreamClustererDoesNotAliasCallerSlice(t *testing.T) {
	sc, err := NewStreamClusterer(1, Options{K: 1, Restarts: 1, ChunkPoints: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{1}
	if err := sc.Push(p); err != nil {
		t.Fatal(err)
	}
	p[0] = 999 // caller reuses the slice
	for i := 0; i < 4; i++ {
		if err := sc.Push([]float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-1) > 1e-9 {
		t.Fatalf("centroid %g polluted by caller's slice reuse", res.Centroids[0][0])
	}
}

func TestClusterChunkPointsMode(t *testing.T) {
	pts := blobPoints(500)
	res, err := Cluster(pts, Options{K: 3, Restarts: 3, ChunkPoints: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// 500/120 = 5 chunks (ceil)
	if res.Partitions != 5 {
		t.Fatalf("Partitions = %d, want 5", res.Partitions)
	}
	if res.PointMSE > 1 {
		t.Fatalf("PointMSE = %g", res.PointMSE)
	}
}

func TestClusterWithNamedStrategiesAndModes(t *testing.T) {
	pts := blobPoints(400)
	for _, strat := range []string{"", "random", "salami", "spatial"} {
		for _, mode := range []string{"", "collective", "incremental"} {
			res, err := Cluster(pts, Options{
				K: 3, Restarts: 2, Splits: 4, Seed: 9,
				Strategy: strat, MergeMode: mode,
			})
			if err != nil {
				t.Fatalf("strategy=%q mode=%q: %v", strat, mode, err)
			}
			if len(res.Centroids) != 3 {
				t.Fatalf("strategy=%q mode=%q: %d centroids", strat, mode, len(res.Centroids))
			}
		}
	}
}

func TestMSEOf(t *testing.T) {
	pts := [][]float64{{0}, {2}}
	mse, err := MSEOf(pts, [][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if mse != 1 {
		t.Fatalf("MSEOf = %g", mse)
	}
	if _, err := MSEOf(nil, [][]float64{{1}}); err == nil {
		t.Fatal("no points should error")
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := ParseStrategy("salami"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy should error")
	}
	if _, err := ParseMergeMode("incremental"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMergeMode("bogus"); err == nil {
		t.Fatal("bogus mode should error")
	}
}

// TestStreamClustererPushAllocatesNothing: Set.Add copies the point, so
// once the chunk buffer has grown, a Push that completes no chunk
// allocates nothing.
func TestStreamClustererPushAllocatesNothing(t *testing.T) {
	const chunk = 1000
	s, err := NewStreamClusterer(2, Options{K: 2, Restarts: 1, ChunkPoints: chunk, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts := blobPoints(chunk) // one full chunk grows the buffer
	for _, p := range pts {
		if err := s.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(chunk/2, func() {
		if err := s.Push(pts[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Push allocates %v objects per point, want 0", allocs)
	}
}
