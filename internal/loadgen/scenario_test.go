package loadgen

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A server refusing everything with 503 is the worst case the ceiling
// search must survive: zero sessions admitted means there is nothing to
// pace, and the search must report saturation immediately instead of
// stepping forever.
func TestThroughputTerminatesOnAlways503(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "queue full", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	d, err := NewDaemonDriver(DaemonConfig{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCorpus(CorpusSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *ThroughputResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := RunThroughput(d, c, ThroughputOptions{
			Sessions: 4, BatchPoints: 16,
			StartRate: 1000, MaxRate: 1e12, StepDuration: 10 * time.Millisecond,
			Spec: SessionSpec{Dim: 6, K: 4, ChunkPoints: 32, WindowChunks: 2, Seed: 1},
		})
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()
	select {
	case err := <-errc:
		t.Fatal(err)
	case res := <-done:
		if !res.Saturated {
			t.Error("always-503 server not reported as saturated")
		}
		if res.Sessions != 0 || res.CeilingPPS != 0 {
			t.Errorf("admitted=%d ceiling=%.0f, want 0/0", res.Sessions, res.CeilingPPS)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ceiling search did not terminate against an always-503 server")
	}
}

// A server that accepts every ingest but refuses a fraction of batches
// above the SLO must also saturate the search (the admitted > 0 path).
func TestThroughputSaturatesOnRejects(t *testing.T) {
	var n int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path != "/v1/sessions" {
			n++
			if n%2 == 0 { // reject every other batch: 50% >> the 5% SLO
				http.Error(w, "queue full", http.StatusServiceUnavailable)
				return
			}
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	d, err := NewDaemonDriver(DaemonConfig{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCorpus(CorpusSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunThroughput(d, c, ThroughputOptions{
		Sessions: 1, BatchPoints: 16,
		StartRate: 2000, MaxRate: 1e12, StepDuration: 50 * time.Millisecond,
		Spec: SessionSpec{Dim: 6, K: 4, ChunkPoints: 32, WindowChunks: 2, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatalf("50%% reject rate did not saturate the search: %+v", res)
	}
	if len(res.Steps) != 1 {
		t.Fatalf("expected the first step to fail, got %d steps", len(res.Steps))
	}
}

// All four scenarios end-to-end against the in-process engine driver:
// the same path cmd/loadgen takes, shrunk to test size.
func TestEngineScenariosEndToEnd(t *testing.T) {
	spec := SessionSpec{Dim: 4, K: 3, ChunkPoints: 32, WindowChunks: 2, Seed: 7}
	c, err := NewCorpus(CorpusSpec{Dim: 4, Clusters: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	tp, err := RunThroughput(NewEngineDriver(nil), c, ThroughputOptions{
		Sessions: 2, BatchPoints: 16,
		StartRate: 2000, MaxRate: 4000, StepDuration: 30 * time.Millisecond,
		Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Sessions != 2 || tp.CeilingPPS <= 0 || len(tp.Steps) == 0 {
		t.Fatalf("throughput: %+v", tp)
	}

	lat, err := RunLatency(NewEngineDriver(nil), c, LatencyOptions{
		Sessions: 2, BatchPoints: 16,
		RatePPS: 4000, Duration: 150 * time.Millisecond, QueryEveryBatches: 2,
		Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lat.Ingest.Count == 0 {
		t.Fatalf("latency recorded no ingest observations: %+v", lat)
	}
	if lat.Queries+lat.QueriesNotReady == 0 {
		t.Fatalf("latency interleaved no queries: %+v", lat)
	}

	deg := NewEngineDriver(nil)
	cost, _ := spec.SessionConfig(0).AdmissionCost()
	deg.MemoryBudget = 2 * cost
	dr, err := RunDegradation(deg, c, DegradationOptions{
		Sessions: 4, BatchPoints: 16,
		RatePPS: 2000, Duration: 100 * time.Millisecond,
		Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dr.AdmittedSessions != 2 || dr.RefusedSessions != 2 {
		t.Fatalf("budget for 2 sessions admitted %d of %d", dr.AdmittedSessions, dr.OfferedSessions)
	}
	if dr.AchievedPPS <= 0 {
		t.Fatalf("admitted sessions made no progress: %+v", dr)
	}

	rec, err := RunRecovery(NewEngineDriver(nil), c, RecoveryOptions{
		Sessions: 2, BatchPoints: 16, PrefillPoints: 64,
		Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Sessions != 2 || rec.QuerySeconds < rec.ReadySeconds {
		t.Fatalf("recovery: %+v", rec)
	}
}

// A paced run under the fake clock is exact: sleeps advance instantly,
// so one simulated second of load costs microseconds of test time and
// the batch schedule is fully deterministic. (Single worker: with a
// shared fake clock, a second worker's instant sleeps could push time
// past the end before the first finishes its schedule.)
func TestPacedRunUnderFakeClock(t *testing.T) {
	clock := NewFakeClock()
	d := NewEngineDriver(clock)
	c, err := NewCorpus(CorpusSpec{Dim: 4, Clusters: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	spec := SessionSpec{Dim: 4, K: 3, ChunkPoints: 32, WindowChunks: 2, Seed: 3}
	streams, admitted, err := openStreams(d, c, spec, 1)
	if err != nil || admitted != 1 {
		t.Fatalf("admitted=%d err=%v", admitted, err)
	}
	stats, err := pacedRun(d, streams, 5000, time.Second, 25, clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Batch i's due time is 5i ms; the loop admits batches 0..200
	// (the end-of-window check happens before each Wait), so exactly
	// 201 batches * 25 points land in one simulated second.
	if stats.acceptedPoints != 201*25 {
		t.Fatalf("accepted %d points, want %d", stats.acceptedPoints, 201*25)
	}
	if stats.elapsed != 1.0 {
		t.Fatalf("elapsed %v fake seconds, want exactly 1.0", stats.elapsed)
	}
}
