package kmeans

import (
	"testing"

	"streamkm/internal/rng"
)

// Tests for the convergence diagnostics the obs layer reports: the
// final ΔMSE of a Lloyd run and the converged-run count of a restart
// sweep.

func TestRunReportsDeltaMSE(t *testing.T) {
	s := twoBlobs(t, 50)
	res, err := Run(s, Config{K: 2}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("two-blob problem should converge")
	}
	// Lloyd's MSE is monotonically non-increasing, and convergence means
	// the final improvement dipped to the threshold or below.
	if res.DeltaMSE < 0 || res.DeltaMSE > DefaultEpsilon {
		t.Fatalf("DeltaMSE = %g, want within [0, %g]", res.DeltaMSE, DefaultEpsilon)
	}

	// A run cut off after one iteration has no MSE delta to report and
	// must not claim convergence.
	cut, err := Run(s, Config{K: 2, MaxIterations: 1}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if cut.Converged || cut.DeltaMSE != 0 {
		t.Fatalf("1-iteration run: converged=%t delta=%g, want false/0", cut.Converged, cut.DeltaMSE)
	}
}

func TestRunRestartsCountsConverged(t *testing.T) {
	s := twoBlobs(t, 30)
	rr, err := RunRestarts(s, Config{K: 2}, 4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Converged != 4 {
		t.Fatalf("Converged = %d, want all 4 easy runs to converge", rr.Converged)
	}
	if rr.Best == nil || !rr.Best.Converged {
		t.Fatal("winning run did not converge")
	}
}
