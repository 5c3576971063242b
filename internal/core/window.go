package core

import (
	"fmt"

	"streamkm/internal/dataset"
	"streamkm/internal/kmeans"
)

// WindowedClusterer extends partial/merge k-means to the continuous-
// query regime of the paper's closest related work (LOCALSEARCH, §2.2):
// an unbounded stream is consumed chunk by chunk, but only the W most
// recent chunk summaries are retained, so the clustering answers
// "what does the stream look like *now*" instead of "overall". Because
// chunks are reduced to weighted centroids, expiring a chunk is O(1) —
// the collective merge is recomputed from the surviving summaries on
// demand, preserving §3.3's fairness between all live chunks.
type WindowedClusterer struct {
	window int
	// chunks buffers arriving points and summarizes each full chunk
	// with the k-means partial operator.
	chunks *ChunkStream
	// ring of the W most recent chunk summaries
	summaries []*dataset.WeightedSet
	expired   int
	// idx maintains the merged answer between queries (snapshot.go).
	idx *snapshotIndex
}

// WindowConfig parameterizes a WindowedClusterer.
type WindowConfig struct {
	// K is the cluster count of every partial and merge step.
	K int
	// ChunkPoints is the memory budget per chunk.
	ChunkPoints int
	// WindowChunks is W, the number of recent chunks the clustering
	// covers.
	WindowChunks int
	// Restarts, Epsilon, MaxIterations tune the inner k-means
	// (Restarts 0 = 1).
	Restarts      int
	Epsilon       float64
	MaxIterations int
	// Seed drives all randomness.
	Seed uint64
	// MergeSolver selects the snapshot merge kernel
	// (kmeans.SolverNames; "" = a full Lloyd merge per query). With
	// kmeans.SolverMiniBatch the clusterer maintains the merged answer
	// incrementally: each rotation warm-starts from the previous
	// answer and refines with mini-batch steps focused on the changed
	// summary, so queries return in O(k·d).
	MergeSolver string
	// ResyncEvery bounds warm-start drift: every Nth rotation replaces
	// the maintained answer with a full cold merge (0 =
	// DefaultResyncEvery; only meaningful with MergeSolver
	// "minibatch").
	ResyncEvery int
}

// NewWindowedClusterer validates the configuration.
func NewWindowedClusterer(dim int, cfg WindowConfig) (*WindowedClusterer, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("core: dim must be positive, got %d", dim)
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", cfg.K)
	}
	if cfg.ChunkPoints < cfg.K {
		return nil, fmt.Errorf("core: ChunkPoints %d below K %d", cfg.ChunkPoints, cfg.K)
	}
	if cfg.WindowChunks <= 0 {
		return nil, fmt.Errorf("core: WindowChunks must be positive, got %d", cfg.WindowChunks)
	}
	if err := kmeans.ValidateSolver(cfg.MergeSolver); err != nil {
		return nil, err
	}
	if cfg.ResyncEvery < 0 {
		return nil, fmt.Errorf("core: ResyncEvery must be non-negative, got %d", cfg.ResyncEvery)
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	summ, err := NewKMeansSummarizer(PartialConfig{
		K:             cfg.K,
		Restarts:      restarts,
		Epsilon:       cfg.Epsilon,
		MaxIterations: cfg.MaxIterations,
	})
	if err != nil {
		return nil, err
	}
	chunks, err := NewChunkStream(dim, cfg.ChunkPoints, summ, cfg.Seed)
	if err != nil {
		return nil, err
	}
	merge := MergeConfig{
		K:             cfg.K,
		Epsilon:       cfg.Epsilon,
		MaxIterations: cfg.MaxIterations,
		Seeder:        kmeans.HeaviestSeeder{},
		Solver:        cfg.MergeSolver,
	}
	return &WindowedClusterer{
		window: cfg.WindowChunks,
		chunks: chunks,
		idx:    newSnapshotIndex(dim, merge, cfg.ResyncEvery),
	}, nil
}

// Dim returns the point dimensionality.
func (w *WindowedClusterer) Dim() int { return w.chunks.Dim() }

// Consumed returns the total number of points pushed.
func (w *WindowedClusterer) Consumed() int { return w.chunks.Consumed() }

// Expired returns the number of chunk summaries that have fallen out of
// the window.
func (w *WindowedClusterer) Expired() int { return w.expired }

// LiveChunks returns the number of summaries currently in the window.
func (w *WindowedClusterer) LiveChunks() int { return len(w.summaries) }

// SnapshotStats reports the snapshot index's activity counters.
func (w *WindowedClusterer) SnapshotStats() SnapshotStats { return w.idx.stats }

// Push consumes one point; a full buffer becomes a chunk summary and the
// oldest summary expires when the window overflows.
func (w *WindowedClusterer) Push(point []float64) error {
	if len(point) != w.Dim() {
		return fmt.Errorf("core: point dim %d, want %d", len(point), w.Dim())
	}
	pr, err := w.chunks.Push(point)
	// The buffered tail is part of what a query sees, so every push
	// dirties the cached snapshot.
	w.idx.invalidate()
	if pr == nil {
		return err
	}
	w.summaries = append(w.summaries, pr.Centroids)
	if len(w.summaries) > w.window {
		w.summaries[0] = nil
		w.summaries = w.summaries[1:]
		w.expired++
	}
	return w.idx.admit(w.summaries)
}

// Snapshot returns the clustering of the window's live summaries plus
// any buffered tail (kept as unit-weight centroids so recent data is
// never invisible). The clusterer keeps running; Snapshot can be called
// any number of times, and with nothing changed since the last call it
// returns the same cached result without re-merging. Snapshots are a
// pure function of stream position — querying never perturbs the
// stream's RNG sequence or the maintained state, so any query
// frequency sees identical answers (snapshot.go has the contract).
func (w *WindowedClusterer) Snapshot() (*MergeResult, error) {
	return w.idx.snapshot(w.chunks.Tail(), w.chunks.Consumed())
}

// WindowState is everything a WindowedClusterer must persist to resume
// bit-identically: the chunk stream's state (points consumed, RNG,
// buffered tail), the window ring of chunk summaries, the window
// counters, and the snapshot index's maintained answer plus activity
// counters. Configuration is deliberately absent — the restoring
// caller supplies the same WindowConfig, mirroring the stream-clusterer
// checkpoint contract.
type WindowState struct {
	ChunkState
	// Expired and Rotations count summaries fallen out of the window
	// and chunk rotations folded into the snapshot index.
	Expired   int
	Rotations int
	// Summaries is the window ring in oldest-first order.
	Summaries []*dataset.WeightedSet
	// Stats are the snapshot index's lifetime work counters.
	Stats SnapshotStats
	// Base is the warm path's eagerly maintained answer, nil when the
	// index has none (cold solver, or fewer than k representatives).
	Base *MergeResult
}

// State captures the clusterer's persistent state. The returned
// summaries and tail alias the live structures (summaries are
// immutable once rotated; the tail must be encoded before the next
// Push), so callers serialize before mutating the clusterer again.
func (w *WindowedClusterer) State() (*WindowState, error) {
	chunk, err := w.chunks.State()
	if err != nil {
		return nil, err
	}
	summaries := make([]*dataset.WeightedSet, len(w.summaries))
	copy(summaries, w.summaries)
	return &WindowState{
		ChunkState: chunk,
		Expired:    w.expired,
		Rotations:  w.idx.rotations,
		Summaries:  summaries,
		Stats:      w.idx.stats,
		Base:       w.idx.base,
	}, nil
}

// RestoreWindowedClusterer rebuilds a clusterer from a captured state.
// The caller supplies the same WindowConfig used originally; a resumed
// clusterer's future pushes and snapshots are bit-identical to one that
// was never interrupted at the same stream position.
func RestoreWindowedClusterer(dim int, cfg WindowConfig, st *WindowState) (*WindowedClusterer, error) {
	w, err := NewWindowedClusterer(dim, cfg)
	if err != nil {
		return nil, err
	}
	if st.Expired < 0 || st.Rotations < 0 {
		return nil, fmt.Errorf("core: negative window-state counter")
	}
	if len(st.Summaries) > cfg.WindowChunks {
		return nil, fmt.Errorf("core: window state holds %d summaries, window is %d chunks", len(st.Summaries), cfg.WindowChunks)
	}
	for i, s := range st.Summaries {
		if s.Dim() != dim {
			return nil, fmt.Errorf("core: window-state summary %d has dim %d, want %d", i, s.Dim(), dim)
		}
	}
	if st.Base != nil && len(st.Base.Centroids) != cfg.K {
		return nil, fmt.Errorf("core: window-state base has %d centroids, want k=%d", len(st.Base.Centroids), cfg.K)
	}
	if err := w.chunks.Restore(st.ChunkState); err != nil {
		return nil, err
	}
	w.expired = st.Expired
	w.summaries = st.Summaries
	if err := w.idx.restore(w.summaries, st.Rotations, st.Stats, st.Base); err != nil {
		return nil, err
	}
	return w, nil
}
