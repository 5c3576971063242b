package streamkm

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"streamkm/internal/dataset"
	"streamkm/internal/engine"
	"streamkm/internal/fault"
	"streamkm/internal/stream"
)

// TestStreamClustererHeapStaysBounded is the memory-bottleneck claim
// verified at the Go-heap level: streaming 400k 6-D points (≈19 MB of
// raw attribute data, plus slice headers) through a 2 000-point budget
// must not accumulate O(N) heap — retained state is the buffer plus
// k weighted centroids per completed chunk.
func TestStreamClustererHeapStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		n      = 400_000
		dim    = 6
		budget = 2_000
		k      = 10
	)
	sc, err := NewStreamClusterer(dim, Options{
		K: k, Restarts: 1, ChunkPoints: budget, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	heapAfterGC := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heapAfterGC()

	p := make([]float64, dim)
	state := uint64(7)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/(1<<53)*100 - 50
	}
	var peakGrowth uint64
	for i := 0; i < n; i++ {
		for d := range p {
			p[d] = next()
		}
		if err := sc.Push(p); err != nil {
			t.Fatal(err)
		}
		if i%100_000 == 99_999 {
			if g := heapAfterGC() - base; g > peakGrowth {
				peakGrowth = g
			}
		}
	}
	res, err := sc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, w := range res.Weights {
		total += w
	}
	if total != n {
		t.Fatalf("weights sum %g, want %d", total, n)
	}
	// Raw data would be ~19 MB plus per-point slice overhead (~38 MB).
	// Retained state is budget points + 200 chunks x k centroids; allow
	// generous slack for allocator noise but stay far below O(N).
	const limit = 8 << 20
	if peakGrowth > limit {
		t.Fatalf("heap grew by %d bytes mid-stream (limit %d): state is not O(chunk)",
			peakGrowth, limit)
	}
	t.Logf("peak heap growth %d KiB over %d points (%d chunks)",
		peakGrowth>>10, n, res.Partitions)
}

// TestFaultInjectedWindowedSoak drives a long supervised engine run —
// 60 000 points in 120 chunks through three partial-operator clones —
// while a deterministic injector fails roughly 1% of operator
// invocations (plus one guaranteed kill). The supervisor must absorb
// every fault through retries, and because each chunk's RNG is
// pre-derived and copied per attempt, the merged answer must be
// bit-identical to a fault-free run. Run under -race this also shakes
// out supervision data races. (The name predates the engine, when the
// soak merged a window of hand-built chunk summaries.)
func TestFaultInjectedWindowedSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		n     = 60_000
		dim   = 4
		chunk = 500 // 120 chunks
		k     = 8
	)
	points, err := dataset.NewSet(dim)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(13)
	for i := 0; i < n; i++ {
		p := make([]float64, dim)
		for d := range p {
			state = state*6364136223846793005 + 1442695040888963407
			p[d] = float64(state>>11)/(1<<53)*100 - 50
		}
		if err := points.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	cells := []engine.Cell{{Points: points}}
	q := engine.Query{K: k, Restarts: 2, Seed: 99}
	plan := engine.PhysicalPlan{ChunkPoints: chunk, PartialClones: 3, QueueCapacity: 4}

	// ~1% error rate plus a guaranteed kill of invocation 30, so the run
	// exercises supervision even if the rate draws come up clean.
	inj := fault.New(fault.Config{Seed: 7, ErrorRate: 0.01, PanicRate: 0.002, ErrorNth: 30})
	faulty, stats, err := engine.NewExec(q, plan,
		engine.WithRetry(stream.RetryPolicy{MaxRetries: 50, BaseBackoff: time.Microsecond, Jitter: 0.5}),
		engine.WithFaultInjection(inj)).Execute(context.Background(), cells)
	if err != nil {
		t.Fatalf("run failed despite supervision: %v", err)
	}
	clean, _, err := engine.Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}

	if inj.Faults() == 0 {
		t.Fatal("injector never fired")
	}
	op := stats.Registry.Lookup("partial-kmeans")
	if op == nil || op.Retries() == 0 {
		t.Fatal("supervision recorded no retries")
	}
	t.Logf("absorbed %d injected faults (%d panics) with %d retries",
		inj.Faults(), inj.Panics(), op.Retries())

	f, c := faulty[0].Result, clean[0].Result
	if faulty[0].Partitions != n/chunk {
		t.Fatalf("partitions = %d, want %d", faulty[0].Partitions, n/chunk)
	}
	if !reflect.DeepEqual(f.Centroids, c.Centroids) || !reflect.DeepEqual(f.Weights, c.Weights) || f.MSE != c.MSE {
		t.Fatalf("faulty run differs from the clean run:\n%v %v %v\n%v %v %v",
			f.Centroids, f.Weights, f.MSE, c.Centroids, c.Weights, c.MSE)
	}
}
