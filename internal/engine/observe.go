package engine

import (
	"fmt"
	"time"

	"streamkm/internal/obs"
	"streamkm/internal/stream"
)

// This file wires the engine into obs, its one telemetry sink. The
// paper's Conquest engine adapts long-running queries from runtime
// resource evidence (§4); here every signal — the stream stages'
// stream_* families and stage_seconds, queue totals, chunk and cell
// counters, governor decisions, degraded-run audits, and one span per
// partial step and per cell merge — lands in one obs.Registry under a
// fixed vocabulary (obs/names.go), so ExecStats.Report() renders a
// single schema-stable JSON document per run.
//
// Granularity contract: counters and gauges are atomic and may be
// bumped anywhere; histograms and spans are recorded once per chunk or
// per merge, never per point, so the Lloyd hot loop stays
// allocation-free and instrumentation-free.

// WithObserver records the execution's metrics and spans into reg
// instead of an internal registry, letting a caller watch counters live
// (pmkm's -progress ticker) or aggregate across executions. The
// registry is also reachable afterwards through ExecStats.Obs.
func WithObserver(reg *obs.Registry) ExecOption {
	return func(e *Exec) { e.obsReg = reg }
}

// execObs caches the engine's live instruments so hot paths touch
// atomics, not the registry's map lock.
type execObs struct {
	reg *obs.Registry
	// stages names the pipeline's stages in order.
	stages []string

	chunksTotal    *obs.Counter
	chunksDone     *obs.Counter
	chunkAttempts  *obs.Counter
	dupChunks      *obs.Counter
	cellsTotal     *obs.Counter
	cellsMerged    *obs.Counter
	points         *obs.Counter
	bytes          *obs.Counter
	restarts       *obs.Counter
	stalls         *obs.Counter
	admissionRefit *obs.Counter
	degradedChunks *obs.Counter
	degradedPoints *obs.Counter

	chunkPoints *obs.Histogram

	kmIterPartial *obs.Counter
	kmRestarts    *obs.Counter
	kmConvPartial *obs.Counter
	kmIterMerge   *obs.Counter
	kmDeltaMSE    *obs.FloatGauge
	summaryPoints *obs.Counter
}

// newExecObs builds the execution's instrument cache. stagePartial is
// the summarizer-derived partial stage label and stageMerge the
// solver-derived merge stage label, so every per-operator family
// (stage latency, chunk sizes, k-means counters, summary output) is
// keyed by the operator that actually ran — run reports distinguish a
// partial-coreset or merge-minibatch run from the defaults at a
// glance.
func newExecObs(reg *obs.Registry, stagePartial, stageMerge string) *execObs {
	// The stages observe their own stage_seconds; registering both here
	// keeps the keys in the report of a run whose journal already held
	// every chunk, so no stage ran.
	for _, stage := range []string{stagePartial, stageMerge} {
		reg.Histogram(obs.StageSeconds, stage, obs.LatencyBuckets())
	}
	return &execObs{
		reg:            reg,
		stages:         []string{opScan, stagePartial, stageMerge},
		chunksTotal:    reg.Counter(obs.EngineChunksTotal, ""),
		chunksDone:     reg.Counter(obs.EngineChunksDone, ""),
		chunkAttempts:  reg.Counter(obs.EngineChunkAttempts, ""),
		dupChunks:      reg.Counter(obs.EngineDupChunks, ""),
		cellsTotal:     reg.Counter(obs.EngineCellsTotal, ""),
		cellsMerged:    reg.Counter(obs.EngineCellsMerged, ""),
		points:         reg.Counter(obs.EnginePoints, ""),
		bytes:          reg.Counter(obs.EngineBytes, ""),
		restarts:       reg.Counter(obs.EngineRestarts, ""),
		stalls:         reg.Counter(obs.GovernWatchdogCancels, ""),
		admissionRefit: reg.Counter(obs.GovernAdmissionRefits, ""),
		degradedChunks: reg.Counter(obs.EngineDegradedChunks, ""),
		degradedPoints: reg.Counter(obs.EngineDegradedPoints, ""),

		chunkPoints: reg.Histogram(obs.ChunkPoints, stagePartial, obs.SizeBuckets()),

		kmIterPartial: reg.Counter(obs.KMeansIterations, stagePartial),
		kmRestarts:    reg.Counter(obs.KMeansRestarts, stagePartial),
		kmConvPartial: reg.Counter(obs.KMeansConverged, stagePartial),
		kmIterMerge:   reg.Counter(obs.KMeansIterations, stageMerge),
		kmDeltaMSE:    reg.FloatGauge(obs.KMeansLastDeltaMSE, stagePartial),
		summaryPoints: reg.Counter(obs.SummaryPoints, stagePartial),
	}
}

// absorbQueues folds one attempt's queue counters into the registry.
// Queues are rebuilt per attempt, so totals Add and high-water marks
// SetMax — the registry accumulates across restarts like the stages'
// own families.
func (o *execObs) absorbQueues(qs ...queueCounters) {
	for _, q := range qs {
		o.reg.Gauge(obs.QueueHighWater, q.name).SetMax(int64(q.highWater))
		o.reg.Counter(obs.QueueEnqueued, q.name).Add(q.enqueued)
		o.reg.Counter(obs.QueueDequeued, q.name).Add(q.dequeued)
	}
}

// queueCounters is the absorbable summary of one stream.Queue.
type queueCounters struct {
	name      string
	highWater int
	enqueued  int64
	dequeued  int64
}

func summarizeQueue[T any](q *stream.Queue[T]) queueCounters {
	return queueCounters{
		name:      q.Name(),
		highWater: q.HighWater(),
		enqueued:  q.Enqueued(),
		dequeued:  q.Dequeued(),
	}
}

// Report renders the execution as the schema-stable JSON run report:
// run-level facts, the governor's admission and degradation record, the
// registry's metrics snapshot, and its span summary (the trace
// section), whose op names equal the metric stage labels.
func (s *ExecStats) Report() *obs.Report {
	rep := &obs.Report{
		Schema:         obs.ReportSchema,
		ElapsedSeconds: s.Elapsed.Seconds(),
		Cells:          s.Cells,
		Chunks:         s.Chunks,
		Restarts:       s.Restarts,
		Stalls:         s.Stalls,
	}
	if a := s.Admission; a != nil {
		rep.Admission = &obs.AdmissionReport{
			BudgetBytes: a.Budget,
			ChunkPoints: a.ChunkPoints,
			Clones:      a.Clones,
			Workers:     a.Workers,
			Constrained: a.Constrained(),
		}
	}
	if d := s.Degraded; d != nil {
		rep.Degraded = &obs.DegradedReport{
			DroppedChunks:    len(d.DroppedChunks),
			DroppedCells:     len(d.DroppedCells),
			PartialCells:     len(d.PartialCells),
			PointsLost:       d.PointsLost,
			DeadlineExceeded: d.DeadlineExceeded,
			Stalls:           d.Stalls,
		}
	}
	rep.Metrics = s.Obs.Snapshot()
	rep.Trace = s.Obs.TraceSummary()
	rep.DroppedSpans = s.Obs.DroppedSpans()
	return rep
}

// Operators renders one summary line per pipeline stage that ran, in
// pipeline order, from its stream_* families:
//
//	partial-kmeans[x2]: in=7 out=7 busy=41.2ms
//
// followed by " retries=… quarantined=… dropped=… panics=…" when any of
// those is nonzero.
func (s *ExecStats) Operators() []string {
	snap := s.Obs.Snapshot()
	var lines []string
	for _, stage := range s.stages {
		clones, ran := snap.Gauge(obs.StreamClones, stage)
		if !ran {
			continue
		}
		busy, _ := snap.Gauge(obs.StreamBusySeconds, stage)
		line := fmt.Sprintf("%s[x%d]: in=%d out=%d busy=%v", stage, int(clones),
			snap.Counter(obs.StreamItemsIn, stage), snap.Counter(obs.StreamItemsOut, stage),
			time.Duration(busy*float64(time.Second)))
		r, q := snap.Counter(obs.StreamRetries, stage), snap.Counter(obs.StreamQuarantined, stage)
		d, p := snap.Counter(obs.StreamDropped, stage), snap.Counter(obs.StreamPanics, stage)
		if r > 0 || q > 0 || d > 0 || p > 0 {
			line += fmt.Sprintf(" retries=%d quarantined=%d dropped=%d panics=%d", r, q, d, p)
		}
		lines = append(lines, line)
	}
	return lines
}
