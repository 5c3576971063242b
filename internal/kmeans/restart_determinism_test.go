package kmeans

import (
	"math"
	"testing"

	"streamkm/internal/rng"
)

// Golden values captured from the pre-flat-memory implementation (serial
// restarts, []Vector storage, per-iteration allocation). The flat-memory
// rewrite is required to reproduce them bit for bit — single-accumulator
// unrolling, index-order scans with strict <, serial seed pre-derivation
// — for every Parallel worker count.
//
// Workload: randomWeighted(300, 7), Config{K: 6}, 5 restarts, rng.New(42).
const (
	goldenRestarts = 5
	goldenBestRun  = 3
	goldenBestMSE  = uint64(0x405c858927d0be6b)

	goldenNaiveCsum       = uint64(0x485725bdb73caf53)
	goldenNaiveTotalIters = 91
)

var goldenNaiveMSEs = [goldenRestarts]uint64{
	0x405cd0c34bcf8051, 0x405d00614f347cfb, 0x405d7fc531e2593c,
	0x405c858927d0be6b, 0x405cbbf1ea1e90f8,
}

// centroidChecksum folds every centroid component's bit pattern through
// an order-sensitive FNV-style mix, so any bitwise deviation in any
// component changes the sum.
func centroidChecksum(res *Result) uint64 {
	var csum uint64
	for _, c := range res.Centroids {
		for _, x := range c {
			csum ^= math.Float64bits(x)
			csum = csum*1099511628211 + 0x9e3779b97f4a7c15
		}
	}
	return csum
}

func goldenRestartRun(t *testing.T, parallel int) *RestartResult {
	t.Helper()
	s := randomWeighted(300, 7)
	cfg := Config{K: 6, Parallel: parallel}
	rr, err := RunRestarts(s, cfg, goldenRestarts, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

func checkGolden(t *testing.T, rr *RestartResult, parallel int,
	wantMSEs [goldenRestarts]uint64, wantCsum uint64, wantIters int) {
	t.Helper()
	if rr.BestRun != goldenBestRun {
		t.Fatalf("Parallel=%d: BestRun = %d, want %d", parallel, rr.BestRun, goldenBestRun)
	}
	if bits := math.Float64bits(rr.Best.MSE); bits != goldenBestMSE {
		t.Fatalf("Parallel=%d: best MSE bits %#x, want %#x", parallel, bits, goldenBestMSE)
	}
	for run, want := range wantMSEs {
		if bits := math.Float64bits(rr.MSEs[run]); bits != want {
			t.Fatalf("Parallel=%d: run %d MSE bits %#x, want %#x", parallel, run, bits, want)
		}
	}
	if csum := centroidChecksum(rr.Best); csum != wantCsum {
		t.Fatalf("Parallel=%d: centroid checksum %#x, want %#x", parallel, csum, wantCsum)
	}
	if rr.TotalIterations != wantIters {
		t.Fatalf("Parallel=%d: TotalIterations = %d, want %d", parallel, rr.TotalIterations, wantIters)
	}
}

// TestRestartsMatchPreRefactorGoldenNaive pins the naive path to the
// exact bits the pre-refactor implementation produced, across worker
// counts.
func TestRestartsMatchPreRefactorGoldenNaive(t *testing.T) {
	for _, parallel := range []int{0, 1, 2, 4, 8} {
		rr := goldenRestartRun(t, parallel)
		checkGolden(t, rr, parallel, goldenNaiveMSEs, goldenNaiveCsum, goldenNaiveTotalIters)
	}
}

// TestRestartsBitIdenticalAcrossWorkerCounts compares complete winning
// results — every centroid component and every assignment — across
// Parallel settings.
func TestRestartsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	base := goldenRestartRun(t, 1)
	for _, parallel := range []int{2, 4, 8} {
		rr := goldenRestartRun(t, parallel)
		if rr.BestRun != base.BestRun {
			t.Fatalf("Parallel=%d: BestRun %d vs %d", parallel, rr.BestRun, base.BestRun)
		}
		for j := range base.Best.Centroids {
			if !rr.Best.Centroids[j].Equal(base.Best.Centroids[j]) {
				t.Fatalf("Parallel=%d: centroid %d differs bitwise", parallel, j)
			}
		}
		for i := range base.Best.Assignments {
			if rr.Best.Assignments[i] != base.Best.Assignments[i] {
				t.Fatalf("Parallel=%d: assignment %d differs", parallel, i)
			}
		}
	}
}

// TestRestartsParallelValidation pins the config validation for the new
// knob.
func TestRestartsParallelValidation(t *testing.T) {
	s := randomWeighted(50, 3)
	if _, err := RunRestarts(s, Config{K: 3, Parallel: -1}, 2, rng.New(1)); err == nil {
		t.Fatal("negative Parallel should error")
	}
	// More workers than restarts is clamped, not an error.
	if _, err := RunRestarts(s, Config{K: 3, Parallel: 64}, 2, rng.New(1)); err != nil {
		t.Fatal(err)
	}
}

// TestLloydSteadyStateAllocsSerial verifies the hot path's contract: one
// warmed-up scratch performs a full assignment sweep plus centroid
// update without a single heap allocation.
func TestLloydSteadyStateAllocsSerial(t *testing.T) {
	s := randomWeighted(400, 5)
	seeds, err := (RandomSeeder{}).Seed(s, 8, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	sc := newScratch(s.Len(), 8, 3)
	sc.loadCentroids(seeds)
	data, wts := s.Data(), s.Weights()
	sc.assignSerial(data, wts) // warm up
	allocs := testing.AllocsPerRun(50, func() {
		sc.assignSerial(data, wts)
		for j := 0; j < sc.k; j++ {
			if sc.weights[j] > 0 {
				row := sc.cent[j*sc.dim : (j+1)*sc.dim]
				srow := sc.sums[j*sc.dim : (j+1)*sc.dim]
				for d := range row {
					row[d] = srow[d] / sc.weights[j]
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Lloyd iteration allocates %.1f objects/op, want 0", allocs)
	}
}
