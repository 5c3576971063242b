package engine

import (
	"context"
	"fmt"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/govern"
	"streamkm/internal/grid"
	"streamkm/internal/histogram"
	"streamkm/internal/kmeans"
	"streamkm/internal/obs"
	"streamkm/internal/rng"
	"streamkm/internal/stream"
	"streamkm/internal/trace"
)

// Stage names: pipeline operators, trace timeline lanes, and obs metric
// stage labels all use the same vocabulary, so a lane in the timeline
// cross-references a stage label in the JSON run report. The partial
// stage is named after the summarizer operator actually running in it
// (Query.partialStage(): "partial-kmeans", "partial-ecvq",
// "partial-coreset"); opPartial is that label for the default operator.
const (
	opScan    = "scan"
	opPartial = "partial-" + core.SummarizerKMeans
	// The merge stage is named after the solver running in it
	// (Query.mergeStage()); opMerge is the full-Lloyd default.
	opMerge          = "merge-kmeans"
	opMergeMiniBatch = "merge-" + kmeans.SolverMiniBatch

	queueChunks   = "chunks"
	queuePartials = "partials"
)

// Cell is one unit of work for the executor: a keyed grid cell's points.
type Cell struct {
	Key    grid.CellKey
	Points *dataset.Set
}

// CellResult is the executor's per-cell output.
type CellResult struct {
	Key grid.CellKey
	// Partitions is the number of chunks that contributed to the cell's
	// merge — its planned chunk count, minus LostChunks on a degraded
	// execution.
	Partitions int
	// LostChunks counts partitions missing from this cell's merge —
	// always 0 for a complete cell; positive only when a governed
	// execution degraded (see ExecStats.Degraded).
	LostChunks int
	// Centroids, Weights, MergeMSE mirror core.Result.
	Result *core.MergeResult
	// PointMSE is the quality against the cell's raw points.
	PointMSE float64
	// PartialTime sums the cell's partial-step durations.
	PartialTime time.Duration
	// Histogram is the cell's compressed representation; set only when
	// Query.Compress is true.
	Histogram *histogram.Histogram
}

// ExecStats summarizes a plan execution.
type ExecStats struct {
	// Registry exposes per-operator counters.
	Registry *stream.StatsRegistry
	// Trace records operator spans; render with Trace.Timeline.
	Trace *trace.Tracer
	// Elapsed is the end-to-end wall-clock time.
	Elapsed time.Duration
	// Cells and Chunks count the processed units.
	Cells  int
	Chunks int
	// Restarts counts plan-level recoveries (0 unless restarts were
	// enabled and a crash occurred).
	Restarts int
	// ReoptEvents records the dynamic re-optimizer's decisions (empty
	// unless the adaptive feature was enabled).
	ReoptEvents []ReoptEvent
	// Admission records the memory governor's plan-fitting decision
	// (nil when no memory budget was set).
	Admission *govern.Admission
	// Stalls counts attempts the stall watchdog cancelled.
	Stalls int
	// Degraded is the quality report of a governed run that returned a
	// partial answer; nil means the results are complete.
	Degraded *DegradedResult
	// Leases is the distributed execution's assignment ledger — one
	// record per (chunk, worker) lease, in (cell, chunk, attempt) order.
	// Empty for local executions.
	Leases []LeaseRecord
	// Obs is the unified metrics registry the execution recorded into
	// (the caller's, under WithObserver, else an internal one). Render
	// it with Report.
	Obs *obs.Registry
}

// chunkTask is one partition of one cell queued for the partial operator.
type chunkTask struct {
	cellIdx  int
	chunkIdx int
	total    int
	chunk    *dataset.Set
	rng      *rng.RNG
}

// partialOut is a partial operator's output, keyed back to its cell.
type partialOut struct {
	cellIdx  int
	chunkIdx int
	total    int
	res      *core.PartialResult
}

// prepareTasks slices every cell up front under core.SliceCell's rule,
// applied cell after cell on the one master stream, so per-chunk RNGs
// are stable regardless of scheduling and a one-cell run equals
// core.Cluster bit for bit.
func prepareTasks(cells []Cell, q Query, plan PhysicalPlan, master *rng.RNG) ([]chunkTask, []*rng.RNG, error) {
	var tasks []chunkTask
	mergeRNGs := make([]*rng.RNG, len(cells))
	for ci, cell := range cells {
		if cell.Points == nil || cell.Points.Len() == 0 {
			return nil, nil, fmt.Errorf("engine: cell %d (%v) is empty", ci, cell.Key)
		}
		sliced, err := core.SliceCell(cell.Points, 0, plan.ChunkPoints, q.Strategy, master)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: cell %v: %w", cell.Key, err)
		}
		for pi, c := range sliced.Chunks {
			tasks = append(tasks, chunkTask{
				cellIdx:  ci,
				chunkIdx: pi,
				total:    len(sliced.Chunks),
				chunk:    c,
				rng:      sliced.ChunkRNGs[pi],
			})
		}
		mergeRNGs[ci] = sliced.MergeRNG
	}
	return tasks, mergeRNGs, nil
}

func validateExecArgs(cells []Cell, q Query, plan PhysicalPlan) error {
	if err := q.validate(); err != nil {
		return err
	}
	if len(cells) == 0 {
		return fmt.Errorf("engine: no cells to execute")
	}
	if plan.ChunkPoints <= 0 {
		return fmt.Errorf("engine: plan has non-positive chunk size %d", plan.ChunkPoints)
	}
	return nil
}

func partialTransform(cells []Cell, summ core.Summarizer, stage string, tr *trace.Tracer, ob *execObs, remote RemotePartial, journal *Journal) stream.TransformFunc[chunkTask, partialOut] {
	spec := summ.Spec()
	return func(ctx context.Context, t chunkTask, emit stream.Emit[partialOut]) error {
		key := cells[t.cellIdx].Key
		end := tr.SpanL(stage, fmt.Sprintf("%v/%d", key, t.chunkIdx),
			trace.Label{Key: "stage", Value: stage},
			trace.Label{Key: "cell", Value: fmt.Sprintf("%v", key)},
			trace.Label{Key: "chunk", Value: fmt.Sprintf("%d", t.chunkIdx)})
		// Every invocation is one attempt (retries of a supervised chunk
		// re-enter here); chunk-level metrics update at this granularity
		// so the Lloyd loop itself carries no instrumentation.
		ob.chunkAttempts.Inc()
		ob.points.Add(int64(t.chunk.Len()))
		ob.bytes.Add(int64(t.chunk.Len()) * pointBytes(t.chunk.Dim()))
		ob.chunkPoints.Observe(float64(t.chunk.Len()))
		// Work on a copy of the task's pre-derived RNG so a retried or
		// restarted chunk replays the identical random sequence — locally
		// or on a remote worker, which receives this exact state along
		// with the operator spec so it runs the identical summarizer.
		taskRNG := *t.rng
		var pr *core.PartialResult
		var err error
		if remote != nil {
			var trail []Assignment
			pr, trail, err = remote.Partial(ctx, RemoteChunk{
				Cell: t.cellIdx, Chunk: t.chunkIdx, Total: t.total,
				Points: t.chunk, RNG: &taskRNG, Spec: spec,
			})
			journal.recordLeases(t.cellIdx, t.chunkIdx, trail)
		} else {
			pr, err = summ.Summarize(t.chunk, &taskRNG)
		}
		end()
		if err != nil {
			return fmt.Errorf("cell %v chunk %d: %w", key, t.chunkIdx, err)
		}
		ob.kmIterPartial.Add(int64(pr.Iterations))
		ob.kmRestarts.Add(int64(pr.Restarts))
		ob.kmConvPartial.Add(int64(pr.Converged))
		ob.kmDeltaMSE.Set(pr.DeltaMSE)
		ob.summaryPoints.Add(int64(pr.Centroids.Len()))
		return emit(partialOut{cellIdx: t.cellIdx, chunkIdx: t.chunkIdx, total: t.total, res: pr})
	}
}

func taskSource(tasks []chunkTask) stream.SourceFunc[chunkTask] {
	return func(_ context.Context, emit stream.Emit[chunkTask]) error {
		for _, t := range tasks {
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	}
}

// Execute runs the physical plan over the cells with no engine
// services enabled — a thin wrapper over the composable executor; see
// Exec.Execute for the pipeline description.
func Execute(ctx context.Context, cells []Cell, q Query, plan PhysicalPlan) ([]CellResult, *ExecStats, error) {
	return NewExec(q, plan).Execute(ctx, cells)
}

// Run is the one-call convenience: optimize the query against the
// resource model, then execute, returning results, the chosen plan, and
// execution stats.
func Run(ctx context.Context, cells []Cell, q Query, res Resources) ([]CellResult, PhysicalPlan, *ExecStats, error) {
	if len(cells) == 0 {
		return nil, PhysicalPlan{}, nil, fmt.Errorf("engine: no cells")
	}
	sizes := make([]int, len(cells))
	dim := 0
	for i, c := range cells {
		if c.Points == nil {
			return nil, PhysicalPlan{}, nil, fmt.Errorf("engine: cell %d has nil points", i)
		}
		sizes[i] = c.Points.Len()
		if dim == 0 {
			dim = c.Points.Dim()
		} else if c.Points.Dim() != dim {
			return nil, PhysicalPlan{}, nil, fmt.Errorf("engine: cell %d has dim %d, want %d", i, c.Points.Dim(), dim)
		}
	}
	plan, err := Optimize(q, sizes, dim, res)
	if err != nil {
		return nil, PhysicalPlan{}, nil, err
	}
	results, stats, err := Execute(ctx, cells, q, plan)
	if err != nil {
		return nil, plan, nil, err
	}
	return results, plan, stats, nil
}
