package dist

import (
	"context"
	"errors"
	"strings"
	"testing"

	"streamkm/internal/core"
	"streamkm/internal/engine"
	"streamkm/internal/rng"
)

// TestDistributedMatchesLocalPerSummarizer extends the loopback
// bit-identity claim to every built-in operator: a coreset-tree or ECVQ
// chunk shipped over SKMF must come back with exactly the bits the
// single-process engine would have produced.
func TestDistributedMatchesLocalPerSummarizer(t *testing.T) {
	cells, base, plan := distScenario(t)
	for _, name := range core.SummarizerNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			q := base
			q.Summarizer = name
			q.CoresetSize = 40
			q.ECVQMaxK = 10
			want := localResults(t, cells, q, plan)

			addrs, stop := startWorkers(t, 2, WorkerConfig{})
			defer stop()
			pool, err := NewPool(context.Background(), PoolConfig{
				Addrs: addrs, Retry: quickRetry(3), Seed: q.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			got, _, err := engine.NewExec(q, plan, engine.WithRemoteWorkers(pool)).
				Execute(context.Background(), cells)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, got, want)
		})
	}
}

// TestWorkerAllowlistRefusesOperator: a worker restricted to kmeans must
// refuse a coreset chunk with a typed protocol failure — as a fail
// frame, not a dead connection — while still serving allowed operators
// on the same connection.
func TestWorkerAllowlistRefusesOperator(t *testing.T) {
	addrs, stop := startWorkers(t, 1, WorkerConfig{Summarizers: []string{core.SummarizerKMeans}})
	defer stop()
	pool, err := NewPool(context.Background(), PoolConfig{Addrs: addrs, Retry: quickRetry(1), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	points := distCell(t, 80, 3)
	_, _, err = pool.Partial(context.Background(), engine.RemoteChunk{
		Cell: 0, Chunk: 0, Total: 1, Points: points, RNG: rng.New(1),
		Spec: core.SummarizerSpec{Name: core.SummarizerCoreset, Params: map[string]string{"m": "20"}},
	})
	if err == nil {
		t.Fatal("disallowed operator computed")
	}
	if !strings.Contains(err.Error(), ErrUnknownOperator.Error()) {
		t.Fatalf("refusal does not carry the typed error: %v", err)
	}

	// The same connection still serves the allowed operator afterwards.
	pr, trail, err := pool.Partial(context.Background(), engine.RemoteChunk{
		Cell: 1, Chunk: 0, Total: 1, Points: points, RNG: rng.New(2),
		Spec: core.SummarizerSpec{Name: core.SummarizerKMeans, Params: map[string]string{"k": "4", "restarts": "1"}},
	})
	if err != nil {
		t.Fatalf("allowed operator after refusal: %v", err)
	}
	if pr == nil || pr.Centroids.Len() == 0 {
		t.Fatal("empty result for allowed operator")
	}
	if len(trail) == 0 || trail[len(trail)-1].Err != "" {
		t.Fatalf("lease trail: %+v", trail)
	}
}

// TestWorkerRefusesUnknownOperatorName: a spec naming an operator this
// binary does not implement, or a param it does not read (an older
// coordinator's accel=true), is version skew: it fails with the typed
// error rather than running some default.
func TestWorkerRefusesUnknownOperatorName(t *testing.T) {
	addrs, stop := startWorkers(t, 1, WorkerConfig{})
	defer stop()
	pool, err := NewPool(context.Background(), PoolConfig{Addrs: addrs, Retry: quickRetry(1), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, spec := range []core.SummarizerSpec{
		{Name: "birch", Params: map[string]string{"k": "4"}},
		{Name: "kmeans", Params: map[string]string{"k": "4", "restarts": "1", "accel": "true"}},
	} {
		_, _, err = pool.Partial(context.Background(), engine.RemoteChunk{
			Cell: 0, Chunk: 0, Total: 1, Points: distCell(t, 60, 4), RNG: rng.New(1), Spec: spec,
		})
		if err == nil {
			t.Fatalf("%s computed", spec.Encode())
		}
		if !strings.Contains(err.Error(), ErrUnknownOperator.Error()) {
			t.Fatalf("%s: failure does not carry the typed error: %v", spec.Encode(), err)
		}
	}
}

// TestRefusalsDoNotEvict: a worker's refusal is an answer, not a
// failure. Two refused chunks in a row, under a retry budget that
// re-leases each one, must each surface as ErrUnknownOperator, keep the
// only worker in rotation, and leave it able to compute the next chunk.
func TestRefusalsDoNotEvict(t *testing.T) {
	addrs, stop := startWorkers(t, 1, WorkerConfig{})
	defer stop()
	pool, err := NewPool(context.Background(), PoolConfig{Addrs: addrs, Retry: quickRetry(1), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	chunk := func(cell int, spec core.SummarizerSpec) engine.RemoteChunk {
		return engine.RemoteChunk{Cell: cell, Chunk: 0, Total: 1, Points: distCell(t, 60, 4), RNG: rng.New(1), Spec: spec}
	}
	for i, spec := range []core.SummarizerSpec{
		{Name: "birch", Params: map[string]string{"k": "4"}},
		{Name: "kmeans", Params: map[string]string{"k": "4", "restarts": "1", "accel": "true"}},
	} {
		_, trail, err := pool.Partial(context.Background(), chunk(i, spec))
		if !errors.Is(err, ErrUnknownOperator) {
			t.Fatalf("%s: err = %v, want ErrUnknownOperator", spec.Encode(), err)
		}
		if len(trail) != 2 {
			t.Fatalf("%s: lease trail %+v, want the refusal and its one re-lease", spec.Encode(), trail)
		}
		if pool.Live() != 1 {
			t.Fatalf("%s: refusal evicted the worker (%d live)", spec.Encode(), pool.Live())
		}
	}
	pr, _, err := pool.Partial(context.Background(),
		chunk(2, core.SummarizerSpec{Name: core.SummarizerKMeans, Params: map[string]string{"k": "4", "restarts": "1"}}))
	if err != nil {
		t.Fatalf("valid chunk after two refusals: %v", err)
	}
	if pr == nil || pr.Centroids.Len() == 0 {
		t.Fatal("empty result for the valid chunk")
	}
}
