package streamkm

import (
	"time"

	"streamkm/internal/core"
	"streamkm/internal/obs"
)

// WindowedClusterer clusters the W most recent memory-budget chunks of
// an unbounded stream, answering "what does the stream look like now"
// snapshots at any time — the continuous-query regime of the paper's
// related work (§2.2), built from the same partial/merge operators.
//
// Snapshots are served from an incremental merge index: the merged
// answer over the live window is maintained eagerly as chunks rotate,
// so a query against an unchanged window returns a cached result in
// O(k·d) with no k-means work. With MergeSolver "minibatch" the index
// additionally warm-starts each maintenance step from the previous
// answer and refines with mini-batch Lloyd instead of re-merging from
// scratch (a periodic full merge every ResyncEvery rotations bounds
// drift). Answers are a pure function of the stream position — the
// same pushes yield the same snapshot regardless of how often
// intermediate snapshots were taken.
type WindowedClusterer struct {
	inner *core.WindowedClusterer
	opts  WindowedOptions

	reg         *obs.Registry
	snapSeconds *obs.Histogram
	// absorbed tracks the core stats already folded into the registry's
	// counters, so Report can be called repeatedly and mid-stream.
	absorbed core.SnapshotStats
}

// WindowedOptions configures a windowed clusterer.
type WindowedOptions struct {
	// K is the cluster count (per chunk and per snapshot).
	K int
	// ChunkPoints is the per-chunk memory budget; must be >= K.
	ChunkPoints int
	// WindowChunks is how many recent chunks a snapshot covers.
	WindowChunks int
	// Restarts is the seed sets per chunk reduction (0 = 1).
	Restarts int
	// Epsilon and MaxIterations tune the inner k-means.
	Epsilon       float64
	MaxIterations int
	// Seed makes the stream reproducible.
	Seed uint64
	// MergeSolver selects the merge/maintenance kernel: "lloyd"
	// (default) or "minibatch", which unlocks warm-started incremental
	// refinement of the snapshot index (see WindowedClusterer).
	MergeSolver string
	// ResyncEvery is how many chunk rotations the mini-batch snapshot
	// index goes between full-merge resyncs (0 = a default policy;
	// ignored under the "lloyd" solver, which always fully merges).
	ResyncEvery int
}

// NewWindowedClusterer returns a windowed clusterer for dim-dimensional
// points.
func NewWindowedClusterer(dim int, opts WindowedOptions) (*WindowedClusterer, error) {
	w := &WindowedClusterer{opts: opts}
	inner, err := core.NewWindowedClusterer(dim, w.coreConfig())
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	w.inner = inner
	w.reg = reg
	w.snapSeconds = reg.Histogram(obs.SnapshotSeconds, "snapshot", obs.LatencyBuckets())
	return w, nil
}

// coreConfig maps the facade options onto the core configuration; the
// checkpoint restore path uses it to rebuild the inner clusterer with
// exactly the shape the options describe.
func (w *WindowedClusterer) coreConfig() core.WindowConfig {
	return core.WindowConfig{
		K:             w.opts.K,
		ChunkPoints:   w.opts.ChunkPoints,
		WindowChunks:  w.opts.WindowChunks,
		Restarts:      w.opts.Restarts,
		Epsilon:       w.opts.Epsilon,
		MaxIterations: w.opts.MaxIterations,
		Seed:          w.opts.Seed,
		MergeSolver:   w.opts.MergeSolver,
		ResyncEvery:   w.opts.ResyncEvery,
	}
}

// Push consumes one point (the slice is copied).
func (w *WindowedClusterer) Push(point []float64) error { return w.inner.Push(point) }

// Consumed returns the total points pushed; Expired the chunks that fell
// out of the window; LiveChunks the summaries currently covered.
func (w *WindowedClusterer) Consumed() int   { return w.inner.Consumed() }
func (w *WindowedClusterer) Expired() int    { return w.inner.Expired() }
func (w *WindowedClusterer) LiveChunks() int { return w.inner.LiveChunks() }

// SnapshotStats reports the snapshot index's lifetime work counters.
func (w *WindowedClusterer) SnapshotStats() core.SnapshotStats { return w.inner.SnapshotStats() }

// Snapshot merges the live window into the current clustering without
// disturbing the stream; it can be called repeatedly, and repeated
// calls against an unchanged window are answered from the index's
// cache.
func (w *WindowedClusterer) Snapshot() (*Result, error) {
	start := time.Now()
	mr, err := w.inner.Snapshot()
	w.snapSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	out := &Result{
		Weights:    mr.Weights,
		MergeMSE:   mr.MSE,
		Partitions: w.inner.LiveChunks(),
		MergeTime:  mr.Elapsed,
		Elapsed:    mr.Elapsed,
	}
	out.Centroids = make([][]float64, len(mr.Centroids))
	for i, c := range mr.Centroids {
		out.Centroids[i] = c
	}
	return out, nil
}

// Report renders the clusterer's query-path metrics as the same
// schema-stable JSON document engine runs emit: the snapshot_* counter
// family (queries, cache hits, warm starts, resyncs, refine
// iterations) plus the per-query latency histogram, all under the
// "snapshot" stage label.
func (w *WindowedClusterer) Report() *obs.Report {
	s := w.inner.SnapshotStats()
	w.reg.Counter(obs.SnapshotQueries, "snapshot").Add(s.Queries - w.absorbed.Queries)
	w.reg.Counter(obs.SnapshotCacheHits, "snapshot").Add(s.CacheHits - w.absorbed.CacheHits)
	w.reg.Counter(obs.SnapshotWarmStarts, "snapshot").Add(s.WarmStarts - w.absorbed.WarmStarts)
	w.reg.Counter(obs.SnapshotResyncs, "snapshot").Add(s.Resyncs - w.absorbed.Resyncs)
	w.reg.Counter(obs.SnapshotRefineIter, "snapshot").Add(s.RefineIterations - w.absorbed.RefineIterations)
	w.absorbed = s
	snap := w.reg.Snapshot()
	snap.Sort()
	return &obs.Report{Schema: obs.ReportSchema, Metrics: snap}
}
