package streamkm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/dist"
	"streamkm/internal/engine"
	"streamkm/internal/fault"
	"streamkm/internal/govern"
	"streamkm/internal/grid"
	"streamkm/internal/metrics"
	"streamkm/internal/obs"
	"streamkm/internal/stream"
)

// Options configures a clustering run. The zero value is not runnable;
// at minimum set K. Defaults: Restarts 10 (the paper's R), Splits chosen
// from ChunkPoints or 5 when neither is set, random slicing, collective
// merge.
type Options struct {
	// K is the number of clusters (the paper's experiments use 40).
	K int
	// Restarts is the number of random seed sets tried per partition
	// (0 = 10, the paper's choice).
	Restarts int
	// Splits fixes the number of partitions p. Mutually exclusive with
	// ChunkPoints; if both are zero, Splits defaults to 5.
	Splits int
	// ChunkPoints sizes partitions by a memory budget (maximum points
	// per chunk) instead of a fixed count.
	ChunkPoints int
	// Parallelism is the number of partial-operator clones used by
	// ClusterContext and ClusterGoverned (0 = 1). It never changes the
	// answer.
	Parallelism int
	// Workers, when >= 2, fans each partial step's Restarts across that
	// many goroutines. Orthogonal to Parallelism (which spreads chunks
	// over operator clones): Workers speeds up one chunk's restarts.
	// Results are bit-identical to serial execution for any value.
	Workers int
	// Strategy selects the slicing strategy: "random" (default),
	// "salami", or "spatial".
	Strategy string
	// MergeMode selects "collective" (default) or "incremental".
	MergeMode string
	// MergeSolver selects the Lloyd kernel the merge stage runs:
	// "lloyd" (default — full-batch iterations to the ΔMSE fixpoint) or
	// "minibatch" (Sculley-style mini-batch gradient steps with
	// per-center learning rates; faster on large merge pools, answers
	// within a small MSE factor of full Lloyd). Deterministic for a
	// fixed Seed either way.
	MergeSolver string
	// Epsilon is the ΔMSE convergence threshold (0 = 1e-9).
	Epsilon float64
	// MaxIterations caps Lloyd iterations per run (0 = 500).
	MaxIterations int
	// Seed makes runs reproducible; equal seeds give equal results.
	Seed uint64
	// Summarizer selects the chunk-summarizer operator that reduces each
	// partition to a weighted summary: "kmeans" (default — the paper's
	// partial k-means), "ecvq" (entropy-constrained VQ, adaptive cluster
	// count), or "coreset" (StreamKM++-style coreset tree).
	Summarizer string
	// SeedMethod selects the k-means seeding strategy where Lloyd runs:
	// "random" (default for partial steps), "heaviest" (default for the
	// merge), "kmeans++" (D²-weighted sampling), or "kmeans||" (the
	// scalable k-means|| oversampling scheme). Applies to the partial
	// stage when Summarizer is "kmeans" and always to the merge stage.
	SeedMethod string
	// CoresetSize is the number of weighted points the "coreset"
	// summarizer keeps per chunk (0 = 10*K).
	CoresetSize int
	// ECVQMaxK caps the "ecvq" summarizer's adaptive cluster count per
	// chunk (0 = 2*K); ECVQLambda is its rate-distortion trade-off
	// (0 = pure distortion, plain k-means behavior).
	ECVQMaxK   int
	ECVQLambda float64
	// Retry, when non-nil, makes ClusterGoverned re-attempt a failed
	// partition instead of surfacing the first error, and sets the
	// re-lease budget for RemoteWorkers. Each attempt replays the
	// partition's own pre-derived random state, so a run that needed
	// retries produces centroids bit-identical to one that did not.
	Retry *RetryPolicy
	// OnDroppedRecord, when non-nil, turns StreamClusterer.Push into a
	// lenient boundary: points with the wrong dimensionality or
	// non-finite coordinates are dropped, counted (see Dropped), and
	// reported here instead of failing the stream. Nil keeps the strict
	// behavior of rejecting wrong-dimension points with an error.
	OnDroppedRecord func(point []float64, err error)

	// Deadline bounds a ClusterGoverned run's wall-clock time. When it
	// fires the run fails with context.DeadlineExceeded — or, with
	// AllowDegraded, returns the work completed so far (0 = unlimited).
	Deadline time.Duration
	// ProgressTimeout arms ClusterGoverned's stall watchdog: a pipeline
	// stage holding pending work while making no progress for this long
	// is cancelled and retried, then failed — or degraded under
	// AllowDegraded (0 = no watchdog).
	ProgressTimeout time.Duration
	// MemoryBudget caps ClusterGoverned's in-flight working set in
	// bytes: the governor deterministically shrinks the chunk size and
	// operator fan-out until the point data in flight fits (0 =
	// unlimited).
	MemoryBudget int64
	// AllowDegraded opts ClusterGoverned into the anytime contract: a
	// permanently failing partition, an expired deadline, or a terminal
	// stall yields the clustering of every surviving partition plus a
	// Result.Degraded quality report, instead of an error.
	AllowDegraded bool
	// RemoteWorkers lists streamkm-worker addresses ("host:port").
	// When non-empty, ClusterGoverned ships each partition to one of
	// these workers (the paper's §3.4 option-1 scale-up) instead of
	// computing it in-process; the merge stays local. Results are
	// bit-identical to the in-process run. Dead workers are evicted and
	// their partitions re-leased to survivors; Options.Retry bounds the
	// re-lease budget, and AllowDegraded governs what happens when every
	// worker is lost.
	RemoteWorkers []string

	// inject places a fault injector in front of every governed partial
	// step (in-package governor tests only).
	inject *fault.Injector
}

// RetryPolicy bounds re-attempts of a failed operation. The zero value
// never retries.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first failure.
	MaxRetries int
	// BaseBackoff is the first retry's delay, doubling each attempt
	// (0 = retry immediately).
	BaseBackoff time.Duration
	// MaxBackoff caps the delay (0 = 64x BaseBackoff).
	MaxBackoff time.Duration
}

// stream converts the facade policy to the engine's retry policy. The
// facade documents BaseBackoff 0 as "retry immediately", which the
// stream policy expresses as a negative base (its own zero means 1ms).
func (p RetryPolicy) stream() stream.RetryPolicy {
	sp := stream.RetryPolicy{
		MaxRetries:  p.MaxRetries,
		BaseBackoff: p.BaseBackoff,
		MaxBackoff:  p.MaxBackoff,
	}
	if p.BaseBackoff <= 0 {
		sp.BaseBackoff = -1
	}
	return sp
}

// Result is the outcome of a clustering run.
type Result struct {
	// Centroids are the final k cluster centers.
	Centroids [][]float64
	// Weights is the number of points represented by each centroid.
	Weights []float64
	// MergeMSE is the paper's quality metric for partial/merge runs:
	// the weighted MSE of the partial-stage centroids against the final
	// centroids (E_pm normalized by total weight).
	MergeMSE float64
	// PointMSE is the mean squared distance of the original points to
	// the final centroids. Only set when the raw points were available
	// (HasPointMSE).
	PointMSE    float64
	HasPointMSE bool
	// Partitions is the number of chunks used.
	Partitions int
	// PartialTime, MergeTime, Elapsed break down the run's wall time.
	PartialTime time.Duration
	MergeTime   time.Duration
	Elapsed     time.Duration
	// Degraded is non-nil when a ClusterGoverned run with AllowDegraded
	// returned a partial answer; it reports exactly what was lost. Nil
	// means the result is complete.
	Degraded *Degraded
	// Report is the engine's unified observability report — per-stage
	// counters, latency histograms, governor decisions — rendered as a
	// schema-stable document (obs.ReportSchema). ClusterContext and
	// ClusterGoverned set it; Cluster and the streaming clusterers
	// bypass the instrumented engine.
	Report *obs.Report
}

// Degraded is the quality report attached to a partial result: how much
// input the answer is missing and why the run degraded. The centroids
// it accompanies are exactly the clustering of the surviving
// partitions — bit-identical to a run over only those partitions.
type Degraded struct {
	// DroppedPartitions counts partitions missing from the answer.
	DroppedPartitions int
	// PointsLost is the number of input points in those partitions.
	PointsLost int
	// DeadlineExceeded reports that the wall-clock deadline forced the
	// degradation.
	DeadlineExceeded bool
	// Stalls counts pipeline attempts cancelled by the stall watchdog.
	Stalls int
}

// String renders the report as a one-line structured summary.
func (d *Degraded) String() string {
	return fmt.Sprintf("degraded: deadline=%t stalls=%d dropped_partitions=%d points_lost=%d",
		d.DeadlineExceeded, d.Stalls, d.DroppedPartitions, d.PointsLost)
}

// ParseStrategy maps a strategy name to the internal constant.
func ParseStrategy(s string) (dataset.SplitStrategy, error) {
	switch s {
	case "", "random":
		return dataset.SplitRandom, nil
	case "salami":
		return dataset.SplitSalami, nil
	case "spatial":
		return dataset.SplitSpatial, nil
	default:
		return 0, fmt.Errorf("streamkm: unknown strategy %q (want random, salami, or spatial)", s)
	}
}

// ParseMergeMode maps a merge-mode name to the internal constant.
func ParseMergeMode(s string) (core.MergeMode, error) {
	switch s {
	case "", "collective":
		return core.MergeCollective, nil
	case "incremental":
		return core.MergeIncremental, nil
	default:
		return 0, fmt.Errorf("streamkm: unknown merge mode %q (want collective or incremental)", s)
	}
}

func (o Options) toCore() (core.Options, error) {
	if o.K <= 0 {
		return core.Options{}, fmt.Errorf("streamkm: K must be positive, got %d", o.K)
	}
	if o.Splits > 0 && o.ChunkPoints > 0 {
		return core.Options{}, errors.New("streamkm: set Splits or ChunkPoints, not both")
	}
	strat, err := ParseStrategy(o.Strategy)
	if err != nil {
		return core.Options{}, err
	}
	mode, err := ParseMergeMode(o.MergeMode)
	if err != nil {
		return core.Options{}, err
	}
	opts := core.Options{
		K:             o.K,
		Restarts:      o.Restarts,
		Splits:        o.Splits,
		ChunkPoints:   o.ChunkPoints,
		Strategy:      strat,
		MergeMode:     mode,
		MergeSolver:   o.MergeSolver,
		Epsilon:       o.Epsilon,
		MaxIterations: o.MaxIterations,
		Seed:          o.Seed,
		Workers:       o.Workers,
		Summarizer:    o.Summarizer,
		SeedMethod:    o.SeedMethod,
		CoresetSize:   o.CoresetSize,
		ECVQMaxK:      o.ECVQMaxK,
		ECVQLambda:    o.ECVQLambda,
	}
	if opts.Restarts == 0 {
		opts.Restarts = 10
	}
	if opts.Splits == 0 && opts.ChunkPoints == 0 {
		opts.Splits = 5
	}
	if err := opts.Validate(); err != nil {
		return core.Options{}, err
	}
	return opts, nil
}

func toSet(points [][]float64) (*dataset.Set, error) {
	if len(points) == 0 {
		return nil, errors.New("streamkm: no points")
	}
	dim := len(points[0])
	set, err := dataset.NewSet(dim)
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("streamkm: point %d has dim %d, want %d", i, len(p), dim)
		}
		if err := set.Add(p); err != nil {
			return nil, err
		}
	}
	return set, nil
}

func fromCore(res *core.Result) *Result {
	out := &Result{
		Weights:     res.Weights,
		MergeMSE:    res.MergeMSE,
		PointMSE:    res.PointMSE,
		HasPointMSE: true,
		Partitions:  res.Partitions,
		PartialTime: res.PartialTime,
		MergeTime:   res.MergeTime,
		Elapsed:     res.Elapsed,
	}
	out.Centroids = make([][]float64, len(res.Centroids))
	for i, c := range res.Centroids {
		out.Centroids[i] = c
	}
	return out
}

// Cluster runs partial/merge k-means over the points with all partial
// steps executed serially.
func Cluster(points [][]float64, opts Options) (*Result, error) {
	copts, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	set, err := toSet(points)
	if err != nil {
		return nil, err
	}
	res, err := core.Cluster(set, copts)
	if err != nil {
		return nil, err
	}
	return fromCore(res), nil
}

// ClusterContext runs partial/merge k-means on the query engine with
// Parallelism cloned partial operators, honoring ctx cancellation. It
// applies none of the governor fields (Deadline, ProgressTimeout,
// MemoryBudget, AllowDegraded, Retry, RemoteWorkers); ClusterGoverned
// does. The result equals Cluster's bit for bit whenever the
// partitioning matches (see ClusterGoverned), and Result.Report carries
// the engine's run report.
func ClusterContext(ctx context.Context, points [][]float64, opts Options) (*Result, error) {
	return clusterOnEngine(ctx, points, opts, false)
}

// ClusterGoverned runs partial/merge k-means through the query engine
// under the resource governor: Options.Deadline, ProgressTimeout, and
// MemoryBudget bound the run's time, liveness, and memory, and
// AllowDegraded lets it return a typed partial result instead of an
// error when a bound is hit (see Result.Degraded). Options.Retry
// supervises individual partitions and RemoteWorkers ships them to
// streamkm-worker processes.
//
// The engine slices and seeds a cell exactly as Cluster does, so for
// the same Options a complete run equals Cluster's output bit for bit,
// as long as the partitioning matches: ChunkPoints is used as is, and
// Splits p becomes a budget of ⌈N/p⌉ points per chunk. That budget
// cuts exactly p chunks when N ≥ p(p−1); below that it can cut fewer
// (N = 81, p = 10 cuts 9 chunks of at most 9 points where Cluster cuts
// 10). A MemoryBudget that shrinks the chunk size changes the
// partitioning too; the refit is recorded in Result.Report. As in
// Cluster, a chunk smaller than K fails the run.
func ClusterGoverned(ctx context.Context, points [][]float64, opts Options) (*Result, error) {
	return clusterOnEngine(ctx, points, opts, true)
}

// clusterOnEngine is the engine body behind ClusterContext and
// ClusterGoverned: one cell, one plan, and the governor options only
// when governed is set.
func clusterOnEngine(ctx context.Context, points [][]float64, opts Options, governed bool) (*Result, error) {
	copts, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	set, err := toSet(points)
	if err != nil {
		return nil, err
	}
	chunk := copts.ChunkPoints
	if chunk <= 0 {
		chunk = (set.Len() + copts.Splits - 1) / copts.Splits
	}
	clones := max(opts.Parallelism, 1)
	q := engine.Query{
		K:             copts.K,
		Restarts:      copts.Restarts,
		Epsilon:       copts.Epsilon,
		MaxIterations: copts.MaxIterations,
		Strategy:      copts.Strategy,
		MergeMode:     copts.MergeMode,
		MergeSolver:   copts.MergeSolver,
		Seed:          copts.Seed,
		Workers:       copts.Workers,
		Summarizer:    copts.Summarizer,
		SeedMethod:    copts.SeedMethod,
		CoresetSize:   copts.CoresetSize,
		ECVQMaxK:      copts.ECVQMaxK,
		ECVQLambda:    copts.ECVQLambda,
	}
	plan := engine.PhysicalPlan{
		ChunkPoints:   chunk,
		PartialClones: clones,
		QueueCapacity: max(2*clones, 4),
		Rationale:     "facade run",
	}
	var eopts []engine.ExecOption
	if governed {
		eopts = append(eopts, engine.WithBudget(govern.Budget{
			Deadline:        opts.Deadline,
			ProgressTimeout: opts.ProgressTimeout,
			MemoryBytes:     opts.MemoryBudget,
		}))
		if opts.Retry != nil {
			eopts = append(eopts, engine.WithRetry(opts.Retry.stream()))
		}
		if opts.AllowDegraded {
			eopts = append(eopts, engine.WithDegradedResults())
		}
		if opts.inject != nil {
			eopts = append(eopts, engine.WithFaultInjection(opts.inject))
		}
		if len(opts.RemoteWorkers) > 0 {
			// One registry shared by the pool and the engine, so the run
			// report carries the per-worker dist_* families too.
			reg := obs.NewRegistry()
			poolRetry := stream.RetryPolicy{MaxRetries: len(opts.RemoteWorkers)}
			if opts.Retry != nil {
				poolRetry = opts.Retry.stream()
			}
			pool, err := dist.NewPool(ctx, dist.PoolConfig{
				Addrs:           opts.RemoteWorkers,
				Retry:           poolRetry,
				ProgressTimeout: opts.ProgressTimeout,
				Seed:            copts.Seed,
				Obs:             reg,
			})
			if err != nil {
				return nil, err
			}
			defer pool.Close()
			eopts = append(eopts, engine.WithRemoteWorkers(pool), engine.WithObserver(reg))
		}
	}
	cells := []engine.Cell{{Key: grid.CellKey{}, Points: set}}
	results, stats, err := engine.NewExec(q, plan, eopts...).Execute(ctx, cells)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		// Even an anytime answer needs at least one surviving partition.
		return nil, fmt.Errorf("streamkm: %s: every partition was lost", stats.Degraded)
	}
	r := results[0]
	out := fromCore(&core.Result{
		Centroids:   r.Result.Centroids,
		Weights:     r.Result.Weights,
		MergeMSE:    r.Result.MSE,
		PointMSE:    r.PointMSE,
		Partitions:  r.Partitions,
		PartialTime: r.PartialTime,
		MergeTime:   r.Result.Elapsed,
		Elapsed:     stats.Elapsed,
	})
	out.Report = stats.Report()
	if rep := stats.Degraded; rep != nil {
		out.Degraded = &Degraded{
			DroppedPartitions: len(rep.DroppedChunks),
			PointsLost:        rep.PointsLost,
			DeadlineExceeded:  rep.DeadlineExceeded,
			Stalls:            rep.Stalls,
		}
	}
	return out, nil
}

// StreamClusterer clusters an unbounded stream under a fixed memory
// budget: points are buffered up to ChunkPoints, each full buffer is
// reduced to weighted centroids by the chunk summarizer and discarded
// (the "one look" regime, core.ChunkStream), and Finish merges all
// retained centroids into the final representation. State is
// O(k * chunks), never O(N).
type StreamClusterer struct {
	opts     Options
	copts    core.Options
	chunks   *core.ChunkStream
	parts    []*dataset.WeightedSet
	dropped  int
	partialT time.Duration
	finished bool
}

// NewStreamClusterer returns a clusterer for dim-dimensional points.
// ChunkPoints must be set (it is the memory budget) and at least K.
func NewStreamClusterer(dim int, opts Options) (*StreamClusterer, error) {
	if opts.Splits > 0 {
		return nil, errors.New("streamkm: StreamClusterer uses ChunkPoints, not Splits")
	}
	if opts.ChunkPoints <= 0 {
		return nil, errors.New("streamkm: StreamClusterer requires ChunkPoints > 0")
	}
	if opts.ChunkPoints < opts.K {
		return nil, fmt.Errorf("streamkm: ChunkPoints %d below K %d", opts.ChunkPoints, opts.K)
	}
	copts, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	summ, err := copts.NewSummarizer()
	if err != nil {
		return nil, err
	}
	chunks, err := core.NewChunkStream(dim, opts.ChunkPoints, summ, opts.Seed)
	if err != nil {
		return nil, err
	}
	return &StreamClusterer{opts: opts, copts: copts, chunks: chunks}, nil
}

// Pushed returns the number of points consumed so far.
func (s *StreamClusterer) Pushed() int { return s.chunks.Consumed() }

// Partials returns the number of chunk reductions performed so far.
func (s *StreamClusterer) Partials() int { return len(s.parts) }

// Dropped returns the number of records discarded by the lenient input
// boundary (always 0 unless Options.OnDroppedRecord is set).
func (s *StreamClusterer) Dropped() int { return s.dropped }

// Push consumes one point. When the buffer reaches ChunkPoints it is
// reduced to weighted centroids and released. With
// Options.OnDroppedRecord set, malformed points (wrong dimension or
// non-finite coordinates) are dropped and reported instead of erroring.
func (s *StreamClusterer) Push(point []float64) error {
	if s.finished {
		return errors.New("streamkm: Push after Finish")
	}
	if len(point) != s.chunks.Dim() {
		err := fmt.Errorf("streamkm: point dim %d, want %d", len(point), s.chunks.Dim())
		if s.opts.OnDroppedRecord != nil {
			s.drop(point, err)
			return nil
		}
		return err
	}
	if s.opts.OnDroppedRecord != nil {
		for d, x := range point {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				s.drop(point, fmt.Errorf("streamkm: non-finite value %g in dimension %d", x, d))
				return nil
			}
		}
	}
	pr, err := s.chunks.Push(point)
	if pr != nil {
		s.keep(pr)
	}
	return err
}

// keep retains one chunk summary for the final merge.
func (s *StreamClusterer) keep(pr *core.PartialResult) {
	s.parts = append(s.parts, pr.Centroids)
	s.partialT += pr.Elapsed
}

func (s *StreamClusterer) drop(point []float64, err error) {
	s.dropped++
	cp := make([]float64, len(point))
	copy(cp, point)
	s.opts.OnDroppedRecord(cp, err)
}

// Finish flushes any buffered tail and merges all weighted centroids
// into the final clustering. The clusterer cannot be reused afterwards.
// PointMSE is not available (the raw points were discarded), so
// HasPointMSE is false.
func (s *StreamClusterer) Finish() (*Result, error) {
	if s.finished {
		return nil, errors.New("streamkm: Finish called twice")
	}
	s.finished = true
	start := time.Now()
	switch tail := s.chunks.Tail(); {
	case tail.Len() == 0:
	case tail.Len() >= s.copts.K:
		pr, err := s.chunks.Flush()
		if err != nil {
			return nil, err
		}
		s.keep(pr)
	case len(s.parts) == 0:
		return nil, fmt.Errorf("streamkm: only %d points pushed, need at least K=%d", s.Pushed(), s.copts.K)
	default:
		// Tail smaller than k: keep the raw points as unit-weight
		// centroids so no data is dropped.
		s.parts = append(s.parts, dataset.Unweighted(tail))
	}
	if len(s.parts) == 0 {
		return nil, errors.New("streamkm: no data pushed")
	}
	// MergeConfig leaves the Seeder nil; MergeKMeans defaults it to the
	// heaviest-point seeder, exactly what this path always used.
	mr, err := core.MergeKMeans(s.parts, s.copts.MergeConfig(), s.chunks.MergeRNG())
	if err != nil {
		return nil, err
	}
	out := &Result{
		Weights:     mr.Weights,
		MergeMSE:    mr.MSE,
		Partitions:  len(s.parts),
		PartialTime: s.partialT,
		MergeTime:   mr.Elapsed,
		Elapsed:     s.partialT + time.Since(start),
	}
	out.Centroids = make([][]float64, len(mr.Centroids))
	for i, c := range mr.Centroids {
		out.Centroids[i] = c
	}
	return out, nil
}

// MSEOf computes the mean squared distance from points to their nearest
// centroid — a convenience for callers that kept (a sample of) the raw
// data and want the apples-to-apples quality number.
func MSEOf(points [][]float64, centroids [][]float64) (float64, error) {
	set, err := toSet(points)
	if err != nil {
		return 0, err
	}
	cs := make([]dataset.Point, len(centroids))
	for i, c := range centroids {
		cs[i] = c
	}
	return metrics.MSE(set, cs)
}
