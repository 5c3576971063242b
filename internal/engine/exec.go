package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"streamkm/internal/fault"
	"streamkm/internal/govern"
	"streamkm/internal/obs"
	"streamkm/internal/rng"
	"streamkm/internal/stream"
	"streamkm/internal/trace"
)

// This file is the engine's single execution core. The paper's Conquest
// engine layers supervision, re-optimization, and query migration as
// *services* over one operator pipeline (§4); accordingly there is
// exactly one pipeline-assembly path here — scan → partial-kmeans →
// merge-kmeans — and every engine feature is an independently
// toggleable option on it:
//
//	supervision     WithRetry / WithRestarts / WithOnRestart
//	journaling      WithJournal (migration checkpoint in/out)
//	re-optimization WithReopt (+ WithOnReoptEvent)
//	fault injection WithFaultInjection
//	tracing         WithTracer
//	observability   WithObserver
//	remote workers  WithRemoteWorkers
//	governing       WithBudget
//	degradation     WithDegradedResults
//
// Any combination composes: an adaptive run can retry chunks and
// restart from its journal; a journaled run can scale up under
// backlog. Fault tolerance follows Conquest's design (§4): supervision
// retries failing chunks with exponential backoff, plan restarts
// replay only the chunks the journal lost in flight, and a journal
// moves the query to another process. Determinism holds across all of
// them because every chunk and merge draws from a pre-derived RNG
// (core.SliceCell) that is copied before use, so the final centroids
// are bit-identical regardless of which features are enabled (the
// equivalence test suite pins this down).

// ExecOption toggles one engine service on an Exec.
type ExecOption func(*Exec)

// Exec is the composed executor for one query and physical plan: a
// specification of the pipeline plus the engine services enabled on
// it. Build with NewExec, run with Execute.
type Exec struct {
	q    Query
	plan PhysicalPlan

	retry       stream.RetryPolicy
	maxRestarts int
	journal     *Journal
	inject      *fault.Injector
	onRestart   func(restart int, err error)
	reopt       *ReoptPolicy
	onReopt     func(ReoptEvent)
	tracer      *trace.Tracer
	supervised  bool
	budget      govern.Budget
	degraded    bool
	obsReg      *obs.Registry
	remote      RemotePartial
}

// NewExec builds an executor for q under plan with the given features
// enabled. With no options it behaves exactly like the plain executor.
func NewExec(q Query, plan PhysicalPlan, opts ...ExecOption) *Exec {
	e := &Exec{q: q, plan: plan}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// WithRetry supervises the partial operator: panics become typed
// errors and each failing chunk is retried per the policy before it
// can fail the plan.
func WithRetry(p stream.RetryPolicy) ExecOption {
	return func(e *Exec) {
		e.retry = p
		e.supervised = true
	}
}

// WithRestarts allows up to max plan-level recoveries: after a crash
// the pipeline is rebuilt and re-run, skipping every chunk whose
// output the journal already holds.
func WithRestarts(max int) ExecOption {
	return func(e *Exec) {
		e.maxRestarts = max
		e.supervised = true
	}
}

// WithJournal seeds the execution from a prior run's checkpoint (query
// migration) and keeps recording into it, so the caller can Encode it
// at any time after a failure. Without this option the executor uses
// an internal journal pruned cell by cell as merges complete.
func WithJournal(j *Journal) ExecOption {
	return func(e *Exec) {
		e.journal = j
		e.supervised = true
	}
}

// WithFaultInjection injects faults in front of every partial-operator
// invocation (testing and chaos drills). Orthogonal to supervision:
// without retries or restarts an injected fault simply fails the plan.
func WithFaultInjection(inj *fault.Injector) ExecOption {
	return func(e *Exec) { e.inject = inj }
}

// WithOnRestart observes each plan-level recovery: the restart ordinal
// (1-based) and the error that killed the previous attempt.
func WithOnRestart(fn func(restart int, err error)) ExecOption {
	return func(e *Exec) { e.onRestart = fn }
}

// WithReopt runs the dynamic re-optimizer alongside the plan: a
// monitor samples the chunk queue and clones additional partial
// replicas (up to policy.MaxClones) while the queue stays congested.
// Decisions are reported in ExecStats.ReoptEvents.
func WithReopt(policy ReoptPolicy) ExecOption {
	return func(e *Exec) {
		p := policy
		e.reopt = &p
	}
}

// WithOnReoptEvent observes each re-optimizer decision as it happens
// (in addition to ExecStats.ReoptEvents).
func WithOnReoptEvent(fn func(ReoptEvent)) ExecOption {
	return func(e *Exec) { e.onReopt = fn }
}

// WithTracer records operator spans into tr instead of an internal
// tracer, letting a caller aggregate spans across executions.
func WithTracer(tr *trace.Tracer) ExecOption {
	return func(e *Exec) { e.tracer = tr }
}

// WithBudget enforces the resource governor's envelope; zero fields
// stay unenforced.
//   - Deadline bounds the execution's wall-clock time. When it fires
//     the run fails with context.DeadlineExceeded — or, with
//     WithDegradedResults, returns whatever has been computed so far as
//     a degraded answer.
//   - MemoryBytes caps the working-set estimate: before the pipeline
//     starts, the governor deterministically shrinks the plan's chunk
//     size and the partial/restart fan-out until the in-flight point
//     data fits (recorded in ExecStats.Admission). The shrink changes
//     scheduling, not semantics — results for a given admitted plan are
//     deterministic for a fixed seed.
//   - ProgressTimeout arms the stall watchdog: a sidecar samples every
//     stage's heartbeat and queue counters, and if a stage holds
//     pending work while making no progress for that long, the attempt
//     is cancelled with a typed *govern.StallError. A stall consumes a
//     plan restart when WithRestarts allows one; otherwise it fails the
//     plan — or degrades it under WithDegradedResults.
func WithBudget(b govern.Budget) ExecOption {
	return func(e *Exec) { e.budget = b }
}

// WithDegradedResults opts into the anytime contract: when a chunk
// permanently fails (retries exhausted), the deadline fires, or a stall
// outlives the restart budget, the execution returns the merge over
// every surviving partition plus a DegradedResult quality report in
// ExecStats.Degraded, instead of an error. Without this option those
// conditions fail the plan loudly.
func WithDegradedResults() ExecOption {
	return func(e *Exec) { e.degraded = true }
}

// newExecStats assembles the execution summary — previously built
// once per executor, now in exactly one place.
func newExecStats(reg *stream.StatsRegistry, tr *trace.Tracer, ob *execObs, start time.Time, cells, chunks, restarts int, events []ReoptEvent) *ExecStats {
	return &ExecStats{
		Registry:    reg,
		Trace:       tr,
		Obs:         ob.reg,
		Elapsed:     time.Since(start),
		Cells:       cells,
		Chunks:      chunks,
		Restarts:    restarts,
		ReoptEvents: events,
	}
}

// Execute runs the plan over the cells as one pipelined stream: a scan
// operator feeds pre-sliced chunks, PartialClones replicas of the
// partial k-means operator consume them from the shared queue, and the
// merge operator finalizes each cell the moment its last chunk
// arrives. Chunks of different cells interleave freely, so partial
// work on later cells overlaps merge work on earlier ones —
// inter-operator pipelining as in Fig. 5. Enabled features wrap this
// same pipeline rather than forking a different executor.
func (e *Exec) Execute(ctx context.Context, cells []Cell) ([]CellResult, *ExecStats, error) {
	if err := validateExecArgs(cells, e.q, e.plan); err != nil {
		return nil, nil, err
	}
	start := time.Now()

	// The governor first fits the plan to the memory budget — a pure,
	// deterministic shrink of chunk size and fan-out — then arms the
	// wall-clock deadline. Admission must precede task preparation so
	// the chunk slicing (and thus the RNG derivation) reflects the
	// admitted plan.
	q, plan := e.q, e.plan
	var admission *govern.Admission
	if e.budget.MemoryBytes > 0 {
		dim := 0
		if cells[0].Points != nil {
			dim = cells[0].Points.Dim()
		}
		a := govern.Admit(e.budget.MemoryBytes, pointBytes(dim),
			2*q.K, plan.ChunkPoints, plan.PartialClones, q.Workers)
		plan.ChunkPoints, plan.PartialClones, q.Workers = a.ChunkPoints, a.Clones, a.Workers
		admission = &a
	}
	if e.budget.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.budget.Deadline)
		defer cancel()
	}

	// Resolve the chunk-summarizer operator once for the whole
	// execution; its spec names the partial stage everywhere (plan
	// EXPLAIN, traces, metrics, watchdog probes, fault injection) and is
	// what the journal and the distributed workers see.
	summ, err := q.newSummarizer()
	if err != nil {
		return nil, nil, err
	}
	stagePartial := q.partialStage()
	stageMerge := q.mergeStage()

	master := rng.New(q.Seed)
	tasks, mergeRNGs, err := prepareTasks(cells, q, plan, master)
	if err != nil {
		return nil, nil, err
	}

	// One metrics registry per execution (the caller's under
	// WithObserver, so live counters are watchable while the plan runs).
	obsReg := e.obsReg
	if obsReg == nil {
		obsReg = obs.NewRegistry()
	}
	ob := newExecObs(obsReg, stagePartial, stageMerge)
	ob.cellsTotal.Add(int64(len(cells)))
	ob.chunksTotal.Add(int64(len(tasks)))
	if admission != nil && admission.Constrained() {
		ob.admissionRefit.Inc()
	}

	tr := e.tracer
	if tr == nil {
		tr = trace.New(0)
	}
	journal := e.journal
	retain := journal != nil
	if journal == nil {
		journal = NewJournal()
	}
	// A journal is bound to the run that filled it: resuming a
	// checkpoint under another operator, seed, strategy or admitted
	// chunk size would merge summaries of different chunks, so the
	// mismatch is refused up front.
	if err := journal.bind(runIdentity{operator: summ.Spec().Encode(), seed: q.Seed,
		strategy: q.Strategy, chunkPoints: plan.ChunkPoints}); err != nil {
		return nil, nil, err
	}
	merger := newCellMerger(cells, q, mergeRNGs, tr, journal, retain, ob)

	// One registry for the whole execution: operator counters
	// (processed/retries/quarantined/...) aggregate across restart
	// attempts instead of reporting only the last attempt's pipeline.
	reg := stream.NewStatsRegistry()

	work := partialTransform(cells, summ, stagePartial, tr, ob, e.remote, journal)
	if e.inject != nil {
		base, inj := work, e.inject
		work = func(ctx context.Context, t chunkTask, emit stream.Emit[partialOut]) error {
			if err := inj.InvokeContext(ctx, stagePartial); err != nil {
				return err
			}
			return base(ctx, t, emit)
		}
	}
	var sup *stream.Supervisor[chunkTask]
	var failed *failedSet
	if e.supervised || e.degraded {
		// Each chunk's backoff schedule is keyed by its (cell, chunk)
		// identity, so retry timing is reproducible per chunk no matter
		// which clone picks it up or in what order failures land.
		sup = &stream.Supervisor[chunkTask]{Retry: e.retry, JitterSeed: q.Seed,
			ItemSeed: func(t chunkTask) uint64 {
				return uint64(t.cellIdx)*0x9e3779b97f4a7c15 ^ uint64(t.chunkIdx)*0xbf58476d1ce4e5b9
			}}
	}
	if e.degraded {
		// Graceful degradation rides on quarantine: a chunk that
		// exhausts its retries is recorded as permanently failed instead
		// of killing the plan, and the final merge proceeds over the
		// survivors.
		failed = newFailedSet()
		sup.DLQ = stream.NewDeadLetterQueue[chunkTask](len(tasks))
		sup.OnQuarantine = func(d stream.DeadLetter[chunkTask]) { failed.add(d.Item) }
	}

	var events []ReoptEvent
	restarts, stalls := 0, 0
	deadlineHit := false
	for {
		// Finalize cells the journal already completes (covers resume
		// from a decoded checkpoint and merges interrupted by a crash).
		if err := merger.mergeReady(); err != nil {
			return nil, nil, err
		}
		var remaining []chunkTask
		for _, t := range tasks {
			if merger.done(t.cellIdx) || journal.has(t.cellIdx, t.chunkIdx) {
				continue
			}
			if failed != nil && failed.has(t.cellIdx, t.chunkIdx) {
				continue // permanently failed: the degraded finalize reports it
			}
			remaining = append(remaining, t)
		}
		if len(remaining) == 0 {
			break
		}

		// Under a progress timeout each attempt gets its own cancellable
		// context so the watchdog can kill just this attempt, recording
		// the StallError as the cancellation cause.
		attemptCtx := ctx
		var cancelAttempt context.CancelCauseFunc
		var hbPartial, hbMerge *govern.Heartbeat
		if e.budget.ProgressTimeout > 0 {
			attemptCtx, cancelAttempt = context.WithCancelCause(ctx)
			hbPartial, hbMerge = new(govern.Heartbeat), new(govern.Heartbeat)
		}

		g, gctx := stream.NewGroup(attemptCtx)
		chunkQ := stream.NewQueue[chunkTask](queueChunks, plan.QueueCapacity)
		partQ := stream.NewQueue[partialOut](queuePartials, plan.QueueCapacity)

		stream.RunSource(g, gctx, reg, opScan, taskSource(remaining), chunkQ)
		pcfg := stream.StageConfig[chunkTask]{Name: stagePartial, Clones: plan.PartialClones, Sup: sup,
			Observe: ob.partialSeconds.ObserveDuration}
		mcfg := stream.StageConfig[partialOut]{Name: stageMerge, Clones: 1,
			Observe: ob.mergeSeconds.ObserveDuration}
		if hbPartial != nil {
			// Assign only when armed: a typed-nil *Heartbeat in the
			// interface field would read as "hook present".
			pcfg.Beat, mcfg.Beat = hbPartial, hbMerge
		}
		st := stream.RunStage(g, gctx, reg, pcfg, work, chunkQ, partQ)
		stream.RunStage(g, gctx, reg, mcfg,
			func(ctx context.Context, p partialOut, _ stream.Emit[struct{}]) error {
				return merger.sink(ctx, p)
			}, partQ, (*stream.Queue[struct{}])(nil))
		if e.reopt != nil {
			e.runReoptMonitor(g, gctx, st, chunkQ, start, &events)
		}

		// The watchdog runs as a sidecar, not a group member: it must
		// not hold g.Wait open on a healthy attempt, and it must be able
		// to cancel the very group it watches. Stage heartbeats and
		// queue dequeue counters together form the progress signal;
		// in-flight items plus queue backlog form the pending signal.
		var wdStop, wdDone chan struct{}
		if hbPartial != nil {
			wd := govern.NewWatchdog(e.budget.ProgressTimeout,
				govern.Probe{
					Name:     stagePartial,
					Progress: func() int64 { return hbPartial.Beats() + chunkQ.Dequeued() },
					Pending:  func() int64 { return hbPartial.InFlight() + int64(chunkQ.Len()) },
				},
				govern.Probe{
					Name:     stageMerge,
					Progress: func() int64 { return hbMerge.Beats() + partQ.Dequeued() },
					Pending:  func() int64 { return hbMerge.InFlight() + int64(partQ.Len()) },
				})
			wdStop, wdDone = make(chan struct{}), make(chan struct{})
			go func() {
				defer close(wdDone)
				wd.Watch(wdStop, func(err error) { cancelAttempt(err) })
			}()
		}

		err := g.Wait()
		if wdStop != nil {
			close(wdStop)
			<-wdDone
		}
		// Queues are rebuilt per attempt; fold this attempt's counters
		// into the registry before they go out of scope.
		ob.absorbQueues(summarizeQueue(chunkQ), summarizeQueue(partQ))
		stalled := false
		if cancelAttempt != nil {
			// Release the attempt context (a no-op if the watchdog
			// already cancelled it), then recover the true failure: the
			// group surfaces a watchdog kill as a bare cancellation, but
			// the context cause carries the StallError.
			cancelAttempt(nil)
			if cause := context.Cause(attemptCtx); err != nil && ctx.Err() == nil && errors.Is(cause, govern.ErrStalled) {
				stalls++
				ob.stalls.Inc()
				stalled = true
				err = cause
			}
		}
		if err == nil {
			continue // loop re-checks: merges done in sink, remaining empties
		}
		if ctx.Err() != nil {
			if e.degraded && errors.Is(ctx.Err(), context.DeadlineExceeded) {
				// Out of wall-clock: degrade to what has been journaled.
				deadlineHit = true
				break
			}
			// The caller cancelled; restarting would spin on a dead context.
			return nil, nil, err
		}
		if stalled && !(e.supervised && restarts < e.maxRestarts) {
			if e.degraded {
				break // terminal stall: degrade instead of failing
			}
			return nil, nil, fmt.Errorf("engine: plan stalled after %d restart(s): %w", restarts, err)
		}
		if !e.supervised {
			return nil, nil, err
		}
		if restarts >= e.maxRestarts {
			return nil, nil, fmt.Errorf("engine: plan failed after %d restart(s): %w", restarts, err)
		}
		restarts++
		ob.restarts.Inc()
		if e.onRestart != nil {
			e.onRestart(restarts, err)
		}
	}

	if e.degraded {
		results, report, err := merger.finalizeDegraded(tasks, deadlineHit, stalls)
		if err != nil {
			return nil, nil, err
		}
		if report != nil {
			ob.degradedChunks.Add(int64(len(report.DroppedChunks)))
			ob.degradedPoints.Add(int64(report.PointsLost))
		}
		stats := newExecStats(reg, tr, ob, start, len(cells), len(tasks), restarts, events)
		stats.Admission, stats.Stalls, stats.Degraded = admission, stalls, report
		stats.Leases = journal.Leases()
		return results, stats, nil
	}
	results, err := merger.finalize()
	if err != nil {
		return nil, nil, err
	}
	stats := newExecStats(reg, tr, ob, start, len(cells), len(tasks), restarts, events)
	stats.Admission, stats.Stalls = admission, stalls
	stats.Leases = journal.Leases()
	return results, stats, nil
}
