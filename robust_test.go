package streamkm

import (
	"math"
	"testing"
	"time"
)

func streamPoints(n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		f := float64(i)
		pts[i] = []float64{f, math.Mod(f*7, 100), -f / 3}
	}
	return pts
}

func finishStream(t *testing.T, s *StreamClusterer, pts [][]float64) *Result {
	t.Helper()
	for _, p := range pts {
		if err := s.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStreamClustererDropsMalformedRecords(t *testing.T) {
	opts := Options{K: 4, ChunkPoints: 50, Restarts: 2, Seed: 9}
	var seen []error
	opts.OnDroppedRecord = func(_ []float64, err error) { seen = append(seen, err) }
	s, err := NewStreamClusterer(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	pts := streamPoints(200)
	pts[10] = []float64{1, 2}              // wrong dimension
	pts[40] = []float64{1, math.NaN(), 3}  // NaN attribute
	pts[90] = []float64{math.Inf(1), 0, 0} // infinite attribute
	res := finishStream(t, s, pts)
	if s.Dropped() != 3 || len(seen) != 3 {
		t.Fatalf("Dropped() = %d, callback saw %d", s.Dropped(), len(seen))
	}
	if s.Pushed() != 197 {
		t.Fatalf("Pushed() = %d, want 197", s.Pushed())
	}
	if len(res.Centroids) != 4 {
		t.Fatalf("got %d centroids", len(res.Centroids))
	}
	// The dropped-record stream must equal a clean stream of the 197
	// surviving points: dropping is invisible downstream.
	clean, err := NewStreamClusterer(3, Options{K: 4, ChunkPoints: 50, Restarts: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var survivors [][]float64
	for i, p := range pts {
		if i != 10 && i != 40 && i != 90 {
			survivors = append(survivors, p)
		}
	}
	want := finishStream(t, clean, survivors)
	assertSameCentroids(t, res, want)
}

func TestStreamClustererStrictModeStillErrors(t *testing.T) {
	s, err := NewStreamClusterer(3, Options{K: 4, ChunkPoints: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push([]float64{1}); err == nil {
		t.Fatal("wrong-dimension push should error without OnDroppedRecord")
	}
	if s.Dropped() != 0 {
		t.Fatalf("Dropped() = %d", s.Dropped())
	}
}

// TestRetryPolicyBackoff pins the facade-to-engine policy conversion
// ClusterGoverned applies: the same delays, and a zero BaseBackoff
// retrying immediately.
func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}.stream()
	if d := p.Backoff(1, 0); d != time.Millisecond {
		t.Fatalf("attempt 1: %v", d)
	}
	if d := p.Backoff(3, 0); d != 4*time.Millisecond {
		t.Fatalf("attempt 3: %v", d)
	}
	if d := p.Backoff(20, 0); d != 4*time.Millisecond {
		t.Fatalf("attempt 20 should cap: %v", d)
	}
	if d := (RetryPolicy{}).stream().Backoff(5, 0); d != 0 {
		t.Fatalf("zero policy should not sleep: %v", d)
	}
}

func assertSameCentroids(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("centroid counts differ: %d != %d", len(got.Centroids), len(want.Centroids))
	}
	for i := range want.Centroids {
		if got.Weights[i] != want.Weights[i] {
			t.Fatalf("centroid %d weight %v != %v", i, got.Weights[i], want.Weights[i])
		}
		for d := range want.Centroids[i] {
			if got.Centroids[i][d] != want.Centroids[i][d] {
				t.Fatalf("centroid %d dim %d: %v != %v", i, d, got.Centroids[i][d], want.Centroids[i][d])
			}
		}
	}
	if got.MergeMSE != want.MergeMSE {
		t.Fatalf("MergeMSE %v != %v", got.MergeMSE, want.MergeMSE)
	}
}
