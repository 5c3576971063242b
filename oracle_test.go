package streamkm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"streamkm"
	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/dist"
	"streamkm/internal/engine"
	"streamkm/internal/fault"
	"streamkm/internal/serve"
	"streamkm/internal/vector"
)

// The oracle: core.Cluster is the one partial/merge definition, and
// every entry point must return its answer bit for bit on equal inputs
// and Options. Each row is one entry point, each shape one (N, p,
// summarizer). The streaming rows see arrival-order chunks, so they are
// compared with salami slicing, which draws nothing from the RNG.

// answer is what every row reports; PointMSE is compared only when
// the row has the raw points (hasPointMSE).
type answer struct {
	centroids   [][]float64
	weights     []float64
	mergeMSE    float64
	pointMSE    float64
	hasPointMSE bool
	partitions  int
}

func vectors(cs []vector.Vector) [][]float64 {
	out := make([][]float64, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

func fromFacade(r *streamkm.Result) answer {
	return answer{r.Centroids, r.Weights, r.MergeMSE, r.PointMSE, r.HasPointMSE, r.Partitions}
}

func fromCell(r engine.CellResult) answer {
	return answer{vectors(r.Result.Centroids), r.Result.Weights, r.Result.MSE, r.PointMSE, true, r.Partitions}
}

// diff names the first field where got differs from want ("" = equal).
func diff(want, got answer) string {
	switch {
	case got.partitions != want.partitions:
		return fmt.Sprintf("partitions %d != %d", got.partitions, want.partitions)
	case len(got.centroids) != len(want.centroids):
		return fmt.Sprintf("%d centroids != %d", len(got.centroids), len(want.centroids))
	case got.mergeMSE != want.mergeMSE:
		return fmt.Sprintf("merge MSE %v != %v", got.mergeMSE, want.mergeMSE)
	case got.hasPointMSE && got.pointMSE != want.pointMSE:
		return fmt.Sprintf("point MSE %v != %v", got.pointMSE, want.pointMSE)
	}
	for i := range want.centroids {
		if got.weights[i] != want.weights[i] {
			return fmt.Sprintf("weight %d: %v != %v", i, got.weights[i], want.weights[i])
		}
		for d := range want.centroids[i] {
			if got.centroids[i][d] != want.centroids[i][d] {
				return fmt.Sprintf("centroid %d dim %d: %v != %v", i, d, got.centroids[i][d], want.centroids[i][d])
			}
		}
	}
	return ""
}

type shape struct {
	n, p                 int
	summarizer, strategy string
	set                  *dataset.Set
	pts                  [][]float64
}

func (s shape) options() streamkm.Options {
	return streamkm.Options{K: 5, Restarts: 2, Splits: s.p, Seed: 11, Summarizer: s.summarizer, Strategy: s.strategy}
}

func (s shape) query() engine.Query {
	strat, _ := streamkm.ParseStrategy(s.strategy)
	return engine.Query{K: 5, Restarts: 2, Seed: 11, Summarizer: s.summarizer, Strategy: strat}
}

// plan is the engine plan the facade builds for Splits p.
func (s shape) plan(clones int) engine.PhysicalPlan {
	return engine.PhysicalPlan{ChunkPoints: (s.n + s.p - 1) / s.p, PartialClones: clones, QueueCapacity: 2}
}

func (s shape) cells() []engine.Cell { return []engine.Cell{{Points: s.set}} }

// salami returns the points in the order whose arrival-order chunking
// cuts dataset.Split's salami chunks: chunk 0's points, then chunk 1's.
func (s shape) salami(t *testing.T) [][]float64 {
	chunks, err := dataset.Split(s.set, s.p, dataset.SplitSalami, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]float64
	for _, c := range chunks {
		for i := 0; i < c.Len(); i++ {
			out = append(out, c.At(i))
		}
	}
	return out
}

func newShape(t *testing.T, n, p int, summarizer, strategy string) shape {
	spec := dataset.DefaultCellSpec()
	spec.Clusters = 8
	set, err := dataset.GenerateCell(spec, n, uint64(n)^77)
	if err != nil {
		t.Fatal(err)
	}
	s := shape{n: n, p: p, summarizer: summarizer, strategy: strategy, set: set, pts: make([][]float64, n)}
	for i := range s.pts {
		s.pts[i] = set.At(i)
	}
	return s
}

type row struct {
	name string
	run  func(t *testing.T, s shape) (answer, error)
}

// facade runs an Options-level entry point. The engine-backed ones
// must carry the run report and must not have refit the plan.
func facade(name string, mutate func(*streamkm.Options), fn func(context.Context, [][]float64, streamkm.Options) (*streamkm.Result, error)) row {
	return row{name, func(t *testing.T, s shape) (answer, error) {
		opts := s.options()
		if mutate != nil {
			mutate(&opts)
		}
		res, err := fn(context.Background(), s.pts, opts)
		if err != nil {
			return answer{}, err
		}
		if name != "Cluster" && (res.Report == nil || res.Report.Metrics.Counter("govern_admission_refits", "") != 0) {
			return answer{}, fmt.Errorf("no run report, or the plan was refit")
		}
		return fromFacade(res), nil
	}}
}

func onEngine(name string, clones int, eopts ...engine.ExecOption) row {
	return row{name, func(t *testing.T, s shape) (answer, error) {
		res, _, err := engine.NewExec(s.query(), s.plan(clones), eopts...).Execute(context.Background(), s.cells())
		if err != nil {
			return answer{}, err
		}
		return fromCell(res[0]), nil
	}}
}

func cluster(_ context.Context, pts [][]float64, opts streamkm.Options) (*streamkm.Result, error) {
	return streamkm.Cluster(pts, opts)
}

// resume crashes a journaled one-cell run, round-trips its journal
// through Encode/DecodeJournal and resumes it.
func resume(t *testing.T, s shape) (answer, error) {
	journal := engine.NewJournal()
	if _, _, err := engine.NewExec(s.query(), s.plan(2), engine.WithJournal(journal),
		engine.WithFaultInjection(fault.ErrorNth(3))).Execute(context.Background(), s.cells()); err == nil {
		return answer{}, fmt.Errorf("the crashing run did not crash")
	}
	var buf bytes.Buffer
	if err := journal.Encode(&buf); err != nil {
		return answer{}, err
	}
	restored, err := engine.DecodeJournal(&buf)
	if err != nil {
		return answer{}, err
	}
	res, _, err := engine.NewExec(s.query(), s.plan(2), engine.WithJournal(restored)).Execute(context.Background(), s.cells())
	if err != nil {
		return answer{}, err
	}
	return fromCell(res[0]), nil
}

func streamClusterer(t *testing.T, s shape) (answer, error) {
	opts := s.options()
	opts.Splits, opts.ChunkPoints, opts.Strategy = 0, s.n/s.p, ""
	sc, err := streamkm.NewStreamClusterer(s.set.Dim(), opts)
	if err != nil {
		return answer{}, err
	}
	for _, p := range s.salami(t) {
		if err := sc.Push(p); err != nil {
			return answer{}, err
		}
	}
	res, err := sc.Finish()
	if err != nil {
		return answer{}, err
	}
	return fromFacade(res), nil
}

// streamSession feeds the salami stream to a streamkmd stream session
// over HTTP and returns its finish answer.
func streamSession(t *testing.T, s shape) (answer, error) {
	srv, err := serve.New(serve.Config{Root: t.TempDir()})
	if err != nil {
		return answer{}, err
	}
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(path string, body, into any) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("POST %s: %s", path, resp.Status)
		}
		if into == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(into)
	}
	if err := post("/v1/sessions", serve.SessionConfig{ID: "oracle", Kind: serve.KindStream, Dim: s.set.Dim(),
		K: 5, ChunkPoints: s.n / s.p, Restarts: 2, Seed: 11, Summarizer: s.summarizer}, nil); err != nil {
		return answer{}, err
	}
	pts := s.salami(t)
	for i := 0; i < len(pts); i += 500 {
		if err := post("/v1/sessions/oracle/points", map[string]any{"points": pts[i:min(i+500, len(pts))]}, nil); err != nil {
			return answer{}, err
		}
	}
	var res serve.ClustersResult
	if err := post("/v1/sessions/oracle/finish", struct{}{}, &res); err != nil {
		return answer{}, err
	}
	return answer{centroids: res.Centroids, weights: res.Weights, mergeMSE: res.MergeMSE, partitions: res.Partitions}, nil
}

func TestOracleEveryEntryPointEqualsCluster(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := make([]string, 2)
	for i := range workers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = ln.Addr().String()
		go dist.Serve(ctx, ln, dist.WorkerConfig{})
	}
	parallelism := func(n int) func(*streamkm.Options) { return func(o *streamkm.Options) { o.Parallelism = n } }
	rows := []row{
		facade("Cluster", nil, cluster),
		facade("ClusterContext/p=1", parallelism(1), streamkm.ClusterContext),
		facade("ClusterContext/p=3", parallelism(3), streamkm.ClusterContext),
		facade("ClusterGoverned", nil, streamkm.ClusterGoverned),
		facade("ClusterGoverned/retry", func(o *streamkm.Options) { o.Retry = &streamkm.RetryPolicy{MaxRetries: 2} }, streamkm.ClusterGoverned),
		facade("ClusterGoverned/memory", func(o *streamkm.Options) { o.MemoryBudget = 1 << 30 }, streamkm.ClusterGoverned),
		facade("ClusterGoverned/remote", func(o *streamkm.Options) { o.RemoteWorkers = workers }, streamkm.ClusterGoverned),
		onEngine("engine/clones=1", 1),
		onEngine("engine/clones=3", 3),
		onEngine("engine/reopt", 1, engine.WithReopt(engine.ReoptPolicy{SampleInterval: time.Millisecond, SustainedSamples: 1, MaxClones: 4})),
		{"engine/resume", resume},
	}
	streamRows := []row{{"StreamClusterer", streamClusterer}, {"streamkmd", streamSession}}

	equal := map[string]int{}
	check := func(rows []row, s shape) {
		strat, _ := streamkm.ParseStrategy(s.strategy)
		ref, err := core.Cluster(s.set, core.Options{K: 5, Restarts: 2, Splits: s.p, Seed: 11, Summarizer: s.summarizer, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		want := answer{vectors(ref.Centroids), ref.Weights, ref.MergeMSE, ref.PointMSE, true, ref.Partitions}
		for _, r := range rows {
			got, err := r.run(t, s)
			if err == nil {
				if d := diff(want, got); d != "" {
					err = fmt.Errorf("differs from core.Cluster: %s", d)
				}
			}
			if err != nil {
				t.Errorf("%s N=%d p=%d %s %s: %v", r.name, s.n, s.p, s.summarizer, s.strategy, err)
				continue
			}
			equal[r.name]++
		}
	}
	shapes := 0
	for _, n := range []int{2500, 12500} {
		for _, p := range []int{5, 10} {
			for _, summ := range core.SummarizerNames() {
				check(rows, newShape(t, n, p, summ, "random"))
				check(streamRows, newShape(t, n, p, summ, "salami"))
				shapes++
			}
		}
	}
	for _, r := range append(rows, streamRows...) {
		t.Logf("%-24s equals core.Cluster on %d/%d shapes", r.name, equal[r.name], shapes)
	}
}

// TestOracleSplitsBelowPSquared pins the one documented exception: the
// engine-backed entry points pass Splits p as a budget of ⌈N/p⌉ points
// per chunk, which cuts exactly p chunks only when N ≥ p(p−1). At
// N = 81, p = 10 the budget is 9 points and cuts 9 chunks where Cluster
// cuts 10, and the engine path equals Cluster run with that budget.
// Chunks smaller than K fail every path, as in Cluster.
func TestOracleSplitsBelowPSquared(t *testing.T) {
	s := newShape(t, 81, 10, "", "")
	opts := streamkm.Options{K: 3, Restarts: 2, Splits: 10, Seed: 11}
	byCount, err := streamkm.Cluster(s.pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if byCount.Partitions != 10 {
		t.Fatalf("Cluster cut %d partitions, want 10", byCount.Partitions)
	}
	budget := opts
	budget.Splits, budget.ChunkPoints = 0, 9
	byBudget, err := streamkm.Cluster(s.pts, budget)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(context.Context, [][]float64, streamkm.Options) (*streamkm.Result, error){
		"ClusterContext": streamkm.ClusterContext, "ClusterGoverned": streamkm.ClusterGoverned,
	} {
		res, err := fn(context.Background(), s.pts, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Partitions != 9 {
			t.Fatalf("%s cut %d partitions, want 9", name, res.Partitions)
		}
		if d := diff(fromFacade(byBudget), fromFacade(res)); d != "" {
			t.Fatalf("%s differs from Cluster with ChunkPoints 9: %s", name, d)
		}
		// 40 points in 10 splits are 4-point chunks, below K = 5.
		small := streamkm.Options{K: 5, Restarts: 2, Splits: 10, Seed: 11}
		if _, err := streamkm.Cluster(s.pts[:40], small); err == nil {
			t.Fatal("Cluster accepted chunks smaller than K")
		}
		if _, err := fn(context.Background(), s.pts[:40], small); err == nil {
			t.Fatalf("%s accepted chunks smaller than K", name)
		}
	}
}
