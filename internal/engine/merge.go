package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/histogram"
	"streamkm/internal/metrics"
	"streamkm/internal/rng"
	"streamkm/internal/trace"
)

// cellMerger is the one merge stage shared by every executor
// configuration: it consumes partial outputs through the execution
// journal and finalizes a cell the moment its last chunk is present.
// Merging always draws from a copy of the cell's pre-derived RNG, so a
// re-merge after a retry, a plan restart, or a resume in another
// process (via DecodeJournal) replays the identical random sequence —
// the invariant behind the bit-identical equivalence guarantees.
type cellMerger struct {
	cells     []Cell
	q         Query
	mergeRNGs []*rng.RNG
	tr        *trace.Tracer
	journal   *Journal
	// retain keeps merged cells' chunks in the journal. It is set when
	// the journal outlives the execution (a caller-provided migration
	// checkpoint); an internal journal is pruned cell by cell instead.
	retain bool
	ob     *execObs
	// stage is the solver-derived merge stage label (Query.mergeStage),
	// shared with traces, metrics, and the watchdog.
	stage string

	mu        sync.Mutex
	results   []CellResult
	completed []bool
}

func newCellMerger(cells []Cell, q Query, mergeRNGs []*rng.RNG, tr *trace.Tracer, journal *Journal, retain bool, ob *execObs) *cellMerger {
	return &cellMerger{
		cells:     cells,
		q:         q,
		mergeRNGs: mergeRNGs,
		tr:        tr,
		journal:   journal,
		retain:    retain,
		ob:        ob,
		stage:     q.mergeStage(),
		results:   make([]CellResult, len(cells)),
		completed: make([]bool, len(cells)),
	}
}

// sink is the merge operator's SinkFunc: journal the partial output,
// then merge its cell if that completed it. A chunk the journal already
// holds — a duplicate delivery from an at-least-once transport — is
// counted as a dup and contributes nothing to the merge.
func (m *cellMerger) sink(_ context.Context, p partialOut) error {
	if m.journal.record(p) {
		m.ob.chunksDone.Inc()
	} else {
		m.ob.dupChunks.Inc()
	}
	return m.mergeCell(p.cellIdx)
}

// done reports whether the cell has been merged.
func (m *cellMerger) done(ci int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.completed[ci]
}

// mergeReady finalizes every cell the journal already completes —
// covers resume from a decoded checkpoint and merges interrupted by a
// crash.
func (m *cellMerger) mergeReady() error {
	for ci := range m.cells {
		if err := m.mergeCell(ci); err != nil {
			return err
		}
	}
	return nil
}

// mergeCell finalizes one cell from the journal once all its chunks are
// present; incomplete cells and already-merged cells are no-ops.
func (m *cellMerger) mergeCell(ci int) error {
	m.mu.Lock()
	if m.completed[ci] {
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()
	parts, partialTime, ok := m.journal.cellParts(ci)
	if !ok {
		return nil
	}
	return m.finishCell(ci, parts, partialTime, 0)
}

// mergePartial finalizes one incomplete cell over whichever of its
// partitions survived, returning the chunk indices that were lost. A
// cell with no surviving partition is left unmerged (the caller reports
// it dropped). Only the degraded finalizer calls this, after the
// pipeline has fully stopped.
func (m *cellMerger) mergePartial(ci, total int) (missing []int, err error) {
	parts, partialTime, missing := m.journal.availableParts(ci, total)
	if len(missing) == 0 {
		// The journal actually completes the cell; merge it normally.
		return nil, m.mergeCell(ci)
	}
	if len(parts) == 0 {
		return missing, nil
	}
	return missing, m.finishCell(ci, parts, partialTime, len(missing))
}

// finishCell runs the merge phase for one cell over the given partial
// results and records its CellResult. Both the complete and the
// degraded path land here, and both draw from a copy of the cell's
// pre-derived merge RNG — which is why a degraded cell's output is
// bit-identical to executing partial/merge over only its surviving
// partitions.
func (m *cellMerger) finishCell(ci int, parts []*dataset.WeightedSet, partialTime time.Duration, lost int) error {
	key := m.cells[ci].Key
	endSpan := m.tr.SpanL(m.stage, fmt.Sprintf("%v", key),
		trace.Label{Key: "stage", Value: m.stage},
		trace.Label{Key: "cell", Value: fmt.Sprintf("%v", key)})
	mergeRNG := *m.mergeRNGs[ci]
	mr, err := core.MergeKMeans(parts, m.q.mergeConfig(), &mergeRNG)
	endSpan()
	if err != nil {
		return fmt.Errorf("cell %v merge: %w", key, err)
	}
	m.ob.cellsMerged.Inc()
	m.ob.kmIterMerge.Add(int64(mr.Iterations))
	pm, err := metrics.MSE(m.cells[ci].Points, mr.Centroids)
	if err != nil {
		return err
	}
	var hist *histogram.Histogram
	if m.q.Compress {
		endSpan := m.tr.Span("compress", fmt.Sprintf("%v", key))
		hist, err = histogram.Build(m.cells[ci].Points, mr.Centroids)
		endSpan()
		if err != nil {
			return fmt.Errorf("cell %v compress: %w", key, err)
		}
	}
	m.mu.Lock()
	m.results[ci] = CellResult{
		Key:         key,
		Partitions:  len(parts),
		LostChunks:  lost,
		Result:      mr,
		PointMSE:    pm,
		PartialTime: partialTime,
		Histogram:   hist,
	}
	m.completed[ci] = true
	m.mu.Unlock()
	if !m.retain {
		m.journal.dropCell(ci)
	}
	return nil
}

// finalize validates that every cell completed and returns the results.
func (m *cellMerger) finalize() ([]CellResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for ci, done := range m.completed {
		if !done {
			return nil, fmt.Errorf("engine: cell %v never completed", m.cells[ci].Key)
		}
	}
	return m.results, nil
}
