package dist

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/engine"
	"streamkm/internal/fault"
	"streamkm/internal/grid"
	"streamkm/internal/obs"
	"streamkm/internal/rng"
	"streamkm/internal/stream"
)

// distCell generates a well-separated synthetic cell, mirroring the
// engine test suite's generator so cross-package comparisons hold.
func distCell(t testing.TB, n int, seed uint64) *dataset.Set {
	t.Helper()
	spec := dataset.DefaultCellSpec()
	spec.Clusters = 5
	spec.Dim = 4
	spec.NoiseFrac = 0
	spec.Separation = 30
	spec.Spread = 0.5
	s, err := dataset.GenerateCell(spec, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// distScenario is the canonical small plan the loopback suites run.
func distScenario(t testing.TB) ([]engine.Cell, engine.Query, engine.PhysicalPlan) {
	t.Helper()
	cells := []engine.Cell{
		{Key: grid.CellKey{Lat: 1, Lon: 1}, Points: distCell(t, 600, 21)},
		{Key: grid.CellKey{Lat: 2, Lon: 2}, Points: distCell(t, 450, 22)},
	}
	q := engine.Query{K: 5, Restarts: 2, Seed: 77}
	plan := engine.PhysicalPlan{ChunkPoints: 150, PartialClones: 3, QueueCapacity: 4}
	return cells, q, plan
}

// startWorker runs a loopback worker, returning its address and a stop
// function that tears it down and joins Serve.
func startWorker(t testing.TB, cfg WorkerConfig) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, ln, cfg)
	}()
	return ln.Addr().String(), func() {
		cancel()
		<-done
	}
}

// startWorkers runs n identical loopback workers.
func startWorkers(t testing.TB, n int, cfg WorkerConfig) ([]string, func()) {
	t.Helper()
	addrs := make([]string, n)
	stops := make([]func(), n)
	for i := range addrs {
		addrs[i], stops[i] = startWorker(t, cfg)
	}
	return addrs, func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// localResults runs the single-process engine — the bit-identical
// reference every distributed run is held to.
func localResults(t testing.TB, cells []engine.Cell, q engine.Query, plan engine.PhysicalPlan) []engine.CellResult {
	t.Helper()
	want, _, err := engine.Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// assertSameResults demands bit-identical centroids, weights, and MSE.
func assertSameResults(t testing.TB, got, want []engine.CellResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i].Result, got[i].Result
		if len(g.Centroids) != len(w.Centroids) {
			t.Fatalf("cell %d: centroid counts differ", i)
		}
		for c := range w.Centroids {
			if g.Weights[c] != w.Weights[c] {
				t.Fatalf("cell %d centroid %d: weight %v != %v", i, c, g.Weights[c], w.Weights[c])
			}
			for d := range w.Centroids[c] {
				if g.Centroids[c][d] != w.Centroids[c][d] {
					t.Fatalf("cell %d centroid %d dim %d: %v != %v",
						i, c, d, g.Centroids[c][d], w.Centroids[c][d])
				}
			}
		}
		if g.MSE != w.MSE {
			t.Fatalf("cell %d: merge MSE %v != %v", i, g.MSE, w.MSE)
		}
		if got[i].PointMSE != want[i].PointMSE {
			t.Fatalf("cell %d: point MSE differs", i)
		}
	}
}

// quickRetry is a fast re-lease budget for loopback tests.
func quickRetry(maxRetries int) stream.RetryPolicy {
	return stream.RetryPolicy{MaxRetries: maxRetries, BaseBackoff: time.Millisecond, Jitter: 0.5}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the payload")
	buf := encodeFrame(frameChunk, payload)
	typ, got, n, err := readFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameChunk || !bytes.Equal(got, payload) || n != int64(len(buf)) {
		t.Fatalf("round trip: typ=%d payload=%q n=%d", typ, got, n)
	}

	// A flipped payload bit must fail the CRC, not decode.
	buf[frameHeaderSize] ^= 0x40
	if _, _, _, err := readFrame(bytes.NewReader(buf)); err == nil {
		t.Fatal("corrupted frame decoded")
	}
}

func TestChunkPayloadRoundTrip(t *testing.T) {
	points := distCell(t, 50, 7)
	r := rng.New(99)
	r.Uint64() // advance so the state is not the seed-fresh one
	summ, err := core.NewKMeansSummarizer(core.PartialConfig{K: 4, Restarts: 3, Epsilon: 1e-7, MaxIterations: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := engine.RemoteChunk{
		Cell: 3, Chunk: 2, Total: 5,
		Points: points,
		RNG:    r,
		Spec:   summ.Spec(),
	}
	payload, err := encodeChunk(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cell != c.Cell || got.Chunk != c.Chunk || got.Total != c.Total {
		t.Fatalf("identity mismatch: %+v", got)
	}
	if got.Spec.Encode() != c.Spec.Encode() {
		t.Fatalf("spec mismatch: %q != %q", got.Spec.Encode(), c.Spec.Encode())
	}
	if got.Points.Len() != points.Len() || got.Points.Dim() != points.Dim() {
		t.Fatalf("points mismatch: %dx%d", got.Points.Len(), got.Points.Dim())
	}
	for i, p := range points.Points() {
		for d, x := range p {
			if got.Points.At(i)[d] != x {
				t.Fatalf("point %d dim %d differs", i, d)
			}
		}
	}
	// The RNG state must transfer exactly: both generators continue with
	// the same sequence.
	for i := 0; i < 8; i++ {
		if a, b := r.Uint64(), got.RNG.Uint64(); a != b {
			t.Fatalf("rng draw %d: %d != %d", i, a, b)
		}
	}
}

func TestResultPayloadRoundTrip(t *testing.T) {
	set, err := dataset.NewWeightedSet(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Add(dataset.WeightedPoint{Weight: 12.5, Vec: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	pr := &core.PartialResult{
		Centroids: set, MSE: 0.25, Iterations: 9, Restarts: 3,
		Converged: 2, DeltaMSE: 1e-10, Points: 150, Elapsed: 42 * time.Millisecond,
	}
	payload, err := encodeResult(1, 2, 4, pr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.cell != 1 || got.chunk != 2 || got.total != 4 {
		t.Fatalf("identity mismatch: %+v", got)
	}
	g := got.res
	if g.MSE != pr.MSE || g.Iterations != pr.Iterations || g.Restarts != pr.Restarts ||
		g.Converged != pr.Converged || g.DeltaMSE != pr.DeltaMSE || g.Points != pr.Points ||
		g.Elapsed != pr.Elapsed {
		t.Fatalf("result mismatch: %+v", g)
	}
	if g.Centroids.Len() != 1 || g.Centroids.Points()[0].Weight != 12.5 {
		t.Fatalf("centroids mismatch")
	}
}

// TestDistributedMatchesLocal is the tentpole's core claim with no
// faults: a run fanned across loopback workers produces centroids
// bit-identical to the single-process engine.
func TestDistributedMatchesLocal(t *testing.T) {
	cells, q, plan := distScenario(t)
	want := localResults(t, cells, q, plan)

	addrs, stop := startWorkers(t, 3, WorkerConfig{})
	defer stop()
	reg := obs.NewRegistry()
	pool, err := NewPool(context.Background(), PoolConfig{
		Addrs: addrs, Retry: quickRetry(3), Seed: q.Seed, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	got, stats, err := engine.NewExec(q, plan, engine.WithRemoteWorkers(pool), engine.WithObserver(reg)).
		Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)

	// Every chunk's lease trail must be journaled, each ending in success.
	if len(stats.Leases) != stats.Chunks {
		t.Fatalf("lease ledger has %d records, want %d (one clean lease per chunk)", len(stats.Leases), stats.Chunks)
	}
	for _, l := range stats.Leases {
		if l.Err != "" {
			t.Fatalf("clean run recorded a failed lease: %+v", l)
		}
	}
	// Work actually crossed the wire, attributed per worker.
	var done, sent int64
	for _, addr := range addrs {
		done += reg.Counter(obs.DistChunksDone, addr).Value()
		sent += reg.Counter(obs.DistBytesSent, addr).Value()
	}
	if done != int64(stats.Chunks) {
		t.Fatalf("workers computed %d chunks, want %d", done, stats.Chunks)
	}
	if sent == 0 {
		t.Fatal("no bytes recorded on the wire")
	}
	if v := reg.Gauge(obs.DistWorkersLive, "").Value(); v != 3 {
		t.Fatalf("workers live = %d, want 3", v)
	}
}

// TestDistributedJournalLeases pins the journal's lease section: lease
// records survive an encode/decode cycle, and a lease-free journal
// writes the same v4 layout with zero leases.
func TestDistributedJournalLeases(t *testing.T) {
	cells, q, plan := distScenario(t)
	addrs, stop := startWorkers(t, 2, WorkerConfig{})
	defer stop()
	pool, err := NewPool(context.Background(), PoolConfig{Addrs: addrs, Retry: quickRetry(3), Seed: q.Seed})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	journal := engine.NewJournal()
	_, stats, err := engine.NewExec(q, plan,
		engine.WithRemoteWorkers(pool), engine.WithJournal(journal)).
		Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(journal.Leases()) != stats.Chunks {
		t.Fatalf("journal leases = %d, want %d", len(journal.Leases()), stats.Chunks)
	}
	var buf bytes.Buffer
	if err := journal.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := engine.DecodeJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, b := journal.Leases(), decoded.Leases()
	if len(a) != len(b) {
		t.Fatalf("decoded %d leases, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lease %d: %+v != %+v", i, a[i], b[i])
		}
	}

	// A local (lease-free) journal uses the same v4 layout with an
	// empty lease section, and round-trips.
	local := engine.NewJournal()
	_, _, err = engine.NewExec(q, plan, engine.WithJournal(local)).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	var lbuf bytes.Buffer
	if err := local.Encode(&lbuf); err != nil {
		t.Fatal(err)
	}
	if v := uint16(lbuf.Bytes()[4]) | uint16(lbuf.Bytes()[5])<<8; v != 4 {
		t.Fatalf("lease-free journal wrote version %d, want 4", v)
	}
	ldecoded, err := engine.DecodeJournal(bytes.NewReader(lbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ldecoded.Leases()); n != 0 {
		t.Fatalf("lease-free journal decoded %d leases", n)
	}
}

// TestPoolNoWorkers: a pool with only unreachable addresses fails fast.
func TestPoolNoWorkers(t *testing.T) {
	_, err := NewPool(context.Background(), PoolConfig{
		Addrs:       []string{"127.0.0.1:1"}, // reserved port: connection refused
		DialTimeout: 200 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("pool with no reachable workers should fail")
	}
	if !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestWorkerResendsUnackedResult exercises the at-least-once path
// directly: drop the coordinator's first ACK and confirm the worker's
// resent result is absorbed without a duplicate landing anywhere.
func TestWorkerResendsUnackedResult(t *testing.T) {
	cells, q, plan := distScenario(t)
	want := localResults(t, cells, q, plan)

	addrs, stop := startWorkers(t, 1, WorkerConfig{AckTimeout: 50 * time.Millisecond})
	defer stop()
	// Frame 1 is the coordinator's Hello; the first ACK is frame 3
	// (Hello, first Chunk, first Ack).
	inj := fault.NewNet(fault.NetConfig{DropNth: 3})
	reg := obs.NewRegistry()
	pool, err := NewPool(context.Background(), PoolConfig{
		Addrs: addrs, Retry: quickRetry(3), Seed: q.Seed, Obs: reg, Inject: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	got, stats, err := engine.NewExec(q, plan, engine.WithRemoteWorkers(pool), engine.WithObserver(reg)).
		Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	if inj.Drops() == 0 {
		t.Fatal("injector never dropped the ack; test exercised nothing")
	}
	// The resent result is either consumed as a stale duplicate by the
	// pool or rejected by the journal — never double-counted.
	if v := reg.Counter(obs.EngineChunksDone, "").Value(); v != int64(stats.Chunks) {
		t.Fatalf("journal counted %d chunks done, want %d", v, stats.Chunks)
	}
}

// TestConcurrentPartials hammers one pool from many goroutines to catch
// free-list races under -race.
func TestConcurrentPartials(t *testing.T) {
	addrs, stop := startWorkers(t, 2, WorkerConfig{})
	defer stop()
	pool, err := NewPool(context.Background(), PoolConfig{Addrs: addrs, Retry: quickRetry(2), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	points := distCell(t, 120, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, trail, err := pool.Partial(context.Background(), engine.RemoteChunk{
				Cell: i, Chunk: 0, Total: 1, Points: points, RNG: rng.New(uint64(i)),
				Spec: core.SummarizerSpec{Name: core.SummarizerKMeans, Params: map[string]string{"k": "4", "restarts": "1"}},
			})
			if err != nil {
				errs <- err
				return
			}
			if len(trail) != 1 || trail[0].Err != "" {
				errs <- context.DeadlineExceeded // placeholder; report below
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
