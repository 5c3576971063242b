// Package engine is the reproduction's stand-in for the Conquest stream
// query engine (§4): a clustering request is a logical query; the
// optimizer turns it into a physical plan by consulting a resource model
// (how much volatile memory may hold operator state, how many workers are
// available) — choosing the partition size so every chunk fits in RAM
// (§3.2) and the partial-operator clone count (§3.4, option 1); the
// executor then runs the plan as a pipelined stream of operators across
// any number of grid cells.
package engine

import (
	"fmt"
	"strings"

	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/kmeans"
)

// Query is the logical clustering request: cluster each input cell into
// K centroids using partial/merge k-means.
type Query struct {
	// K is the per-cell cluster count.
	K int
	// Restarts is the seed sets per partition.
	Restarts int
	// Epsilon is the ΔMSE convergence threshold (0 = paper default).
	Epsilon float64
	// MaxIterations caps Lloyd iterations (0 = default).
	MaxIterations int
	// Strategy is the slicing strategy for partitions.
	Strategy dataset.SplitStrategy
	// MergeMode selects collective or incremental merging.
	MergeMode core.MergeMode
	// Seed derives all randomness.
	Seed uint64
	// Workers, when >= 2, fans each partial operator's Restarts across
	// that many goroutines (§3.4 option 2, inside one operator).
	// Orthogonal to the optimizer's clone count, and bit-identical to
	// serial execution for any value.
	Workers int
	// Compress appends the histogram stage (§1's compression product):
	// each CellResult carries a multivariate histogram built from the
	// cell's points and final centroids.
	Compress bool
	// Summarizer names the chunk-summarizer operator ("" or "kmeans" =
	// the paper's partial k-means; "ecvq", "coreset").
	Summarizer string
	// SeedMethod names the seeding strategy for both the k-means
	// partial stage and the merge stage (kmeans.SeederByName; "" keeps
	// the historic defaults: random partial, heaviest merge).
	SeedMethod string
	// MergeSolver selects the merge-stage iteration kernel
	// (kmeans.SolverNames; "" = full Lloyd, "minibatch" = sampled
	// gradient steps). Labeled in plans, traces, and metrics as
	// "merge-minibatch"; journals are unaffected (the merge re-runs on
	// resume from journaled partials).
	MergeSolver string
	// CoresetSize is the coreset operator's output size m (0 = 10*K).
	CoresetSize int
	// ECVQMaxK and ECVQLambda parameterize the ecvq operator
	// (0 = 2*K and no rate penalty).
	ECVQMaxK   int
	ECVQLambda float64
}

func (q Query) validate() error {
	if q.K <= 0 {
		return fmt.Errorf("engine: K must be positive, got %d", q.K)
	}
	if q.Restarts <= 0 {
		return fmt.Errorf("engine: Restarts must be positive, got %d", q.Restarts)
	}
	if _, err := q.newSummarizer(); err != nil {
		return err
	}
	if err := kmeans.ValidateSolver(q.MergeSolver); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// newSummarizer resolves the query's chunk-summarizer operator.
func (q Query) newSummarizer() (core.Summarizer, error) {
	return core.SummarizerFor(q.Summarizer, core.SummarizerOptions{
		Partial:     q.partialConfig(),
		SeedMethod:  q.SeedMethod,
		CoresetSize: q.CoresetSize,
		ECVQ:        core.ECVQPartialConfig{MaxK: q.ECVQMaxK, Lambda: q.ECVQLambda},
	})
}

// partialStage names the partial stage after the operator actually
// running in it ("partial-kmeans", "partial-ecvq", "partial-coreset").
// The label flows into plan EXPLAIN output, traces, metric families,
// watchdog probes, and fault-injection points.
func (q Query) partialStage() string {
	name := q.Summarizer
	if name == "" {
		name = core.SummarizerKMeans
	}
	return "partial-" + name
}

// mergeStage names the merge stage after the solver running in it
// ("merge-kmeans" for the full Lloyd default, "merge-minibatch" for
// the sampled kernel), flowing into the same EXPLAIN/trace/metric/
// watchdog surfaces as partialStage.
func (q Query) mergeStage() string {
	if q.MergeSolver == kmeans.SolverMiniBatch {
		return opMergeMiniBatch
	}
	return opMerge
}

// Resources is the physical resource model the optimizer consults.
type Resources struct {
	// MemoryBytes is the volatile memory available for one partial
	// operator's state (the paper's "physical memory, not virtual
	// memory" constraint).
	MemoryBytes int64
	// Workers is the number of processors/machines available for
	// cloned operators.
	Workers int
}

// pointBytes estimates the in-memory footprint of one point during a
// partial k-means: the attribute payload plus slice/assignment overhead.
const perPointOverheadBytes = 48

func pointBytes(dim int) int64 { return int64(dim)*8 + perPointOverheadBytes }

// PhysicalPlan is the optimizer's decision.
type PhysicalPlan struct {
	// ChunkPoints is the maximum points per partition so a chunk fits
	// in the memory budget.
	ChunkPoints int
	// PartialClones is how many replicas of the partial operator run.
	PartialClones int
	// QueueCapacity sizes the inter-operator queues.
	QueueCapacity int
	// Rationale explains the decision for logs and EXPLAIN output.
	Rationale string
	// PartialStage labels the partial stage with the summarizer
	// operator that runs in it (Query.partialStage(); "" renders as the
	// k-means default for hand-built plans).
	PartialStage string
	// MergeStage labels the merge stage with the solver that runs in
	// it (Query.mergeStage(); "" renders as the full-Lloyd default).
	MergeStage string
}

// Explain formats the plan like a query EXPLAIN.
func (p PhysicalPlan) Explain() string {
	stage := p.PartialStage
	if stage == "" {
		stage = "partial-" + core.SummarizerKMeans
	}
	merge := p.MergeStage
	if merge == "" {
		merge = opMerge
	}
	var b strings.Builder
	fmt.Fprintf(&b, "PhysicalPlan:\n")
	fmt.Fprintf(&b, "  scan -> %s x%d -> %s\n", stage, p.PartialClones, merge)
	fmt.Fprintf(&b, "  chunk size: %d points\n", p.ChunkPoints)
	fmt.Fprintf(&b, "  queue capacity: %d\n", p.QueueCapacity)
	fmt.Fprintf(&b, "  rationale: %s\n", p.Rationale)
	return b.String()
}

// Optimize chooses a physical plan for the query given the resource
// model and workload shape (cell sizes and dimensionality). It returns
// an error when the memory budget cannot hold even a minimum viable
// chunk (2*K points — below that, partial k-means cannot seed k
// centroids with headroom).
func Optimize(q Query, cellSizes []int, dim int, res Resources) (PhysicalPlan, error) {
	if err := q.validate(); err != nil {
		return PhysicalPlan{}, err
	}
	if dim <= 0 {
		return PhysicalPlan{}, fmt.Errorf("engine: dim must be positive, got %d", dim)
	}
	if len(cellSizes) == 0 {
		return PhysicalPlan{}, fmt.Errorf("engine: no cells to plan for")
	}
	if res.MemoryBytes <= 0 {
		return PhysicalPlan{}, fmt.Errorf("engine: memory budget must be positive, got %d", res.MemoryBytes)
	}
	workers := res.Workers
	if workers < 1 {
		workers = 1
	}
	largest, total := 0, 0
	for _, n := range cellSizes {
		if n <= 0 {
			return PhysicalPlan{}, fmt.Errorf("engine: cell with non-positive size %d", n)
		}
		if n > largest {
			largest = n
		}
		total += n
	}
	minChunk := 2 * q.K
	budgetChunk := int(res.MemoryBytes / pointBytes(dim))
	if budgetChunk < minChunk {
		return PhysicalPlan{}, fmt.Errorf(
			"engine: memory budget %d bytes holds only %d points of dim %d, below the minimum viable chunk %d (k=%d)",
			res.MemoryBytes, budgetChunk, dim, minChunk, q.K)
	}
	chunk := budgetChunk
	if chunk > largest {
		// No cell needs chunking beyond its own size.
		chunk = largest
	}
	// Expected number of chunks across the workload bounds useful clones.
	expectedChunks := 0
	for _, n := range cellSizes {
		expectedChunks += (n + chunk - 1) / chunk
	}
	clones := workers
	if clones > expectedChunks {
		clones = expectedChunks
	}
	queueCap := 2 * clones
	if queueCap < 4 {
		queueCap = 4
	}
	return PhysicalPlan{
		ChunkPoints:   chunk,
		PartialClones: clones,
		QueueCapacity: queueCap,
		PartialStage:  q.partialStage(),
		MergeStage:    q.mergeStage(),
		Rationale: fmt.Sprintf(
			"budget %dB / %dB-per-point(dim=%d) = %d points per chunk; %d cells totalling %d points -> ~%d chunks; %d workers -> %d clones",
			res.MemoryBytes, pointBytes(dim), dim, budgetChunk, len(cellSizes), total, expectedChunks, workers, clones),
	}, nil
}

func (q Query) partialConfig() core.PartialConfig {
	return core.PartialConfig{
		K:             q.K,
		Restarts:      q.Restarts,
		Epsilon:       q.Epsilon,
		MaxIterations: q.MaxIterations,
		Workers:       q.Workers,
	}
}

func (q Query) mergeConfig() core.MergeConfig {
	var seeder kmeans.Seeder = kmeans.HeaviestSeeder{}
	if q.SeedMethod != "" {
		if s, err := kmeans.SeederByName(q.SeedMethod); err == nil && s != nil {
			seeder = s
		}
	}
	return core.MergeConfig{
		K:             q.K,
		Epsilon:       q.Epsilon,
		MaxIterations: q.MaxIterations,
		Seeder:        seeder,
		Mode:          q.MergeMode,
		Solver:        q.MergeSolver,
	}
}
