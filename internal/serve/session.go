package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"streamkm"
	"streamkm/internal/govern"
)

// Session kinds.
const (
	KindWindowed = "windowed" // continuous-query clusterer, queried via clusters
	KindStream   = "stream"   // run-to-completion clusterer, closed via finish
)

// Sentinel errors; the HTTP layer maps them onto status codes (503
// with Retry-After for the retryable family, 404/409/400 otherwise).
var (
	ErrNotFound    = errors.New("serve: session not found")
	ErrExists      = errors.New("serve: session already exists")
	ErrDraining    = errors.New("serve: daemon is draining")
	ErrBusy        = errors.New("serve: session ingest queue is full")
	ErrMemory      = errors.New("serve: memory budget exhausted")
	ErrTooMany     = errors.New("serve: session limit reached")
	ErrQuarantined = errors.New("serve: session is quarantined")
	ErrClosed      = errors.New("serve: session is closed")
	ErrWrongKind   = errors.New("serve: operation does not apply to this session kind")
	ErrNotReady    = errors.New("serve: not enough data for a clustering yet")
	ErrBadRequest  = errors.New("serve: bad request")
)

// SessionConfig is a session's immutable shape: the clusterer options
// plus the session's own durability cadence and lifetime. It is the
// create-request body and the meta.json document verbatim.
type SessionConfig struct {
	ID   string `json:"id,omitempty"`
	Kind string `json:"kind,omitempty"` // "windowed" (default) or "stream"
	Dim  int    `json:"dim"`
	K    int    `json:"k"`
	// ChunkPoints is the per-chunk memory budget (points).
	ChunkPoints int `json:"chunk_points"`
	// WindowChunks is the windowed kind's W (ignored for streams).
	WindowChunks  int     `json:"window_chunks,omitempty"`
	Restarts      int     `json:"restarts,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`
	Seed          uint64  `json:"seed"`
	MergeSolver   string  `json:"merge_solver,omitempty"`
	// ResyncEvery tunes the windowed kind's snapshot index.
	ResyncEvery int `json:"resync_every,omitempty"`
	// Summarizer/SeedMethod/CoresetSize select the stream kind's chunk
	// summarizer (ignored for windowed sessions).
	Summarizer  string `json:"summarizer,omitempty"`
	SeedMethod  string `json:"seed_method,omitempty"`
	CoresetSize int    `json:"coreset_size,omitempty"`
	// FsyncEvery and CheckpointEvery override the daemon's durability
	// cadence for this session (0 = daemon default): points between
	// WAL fsyncs and between checkpoint compactions.
	FsyncEvery      int `json:"fsync_every,omitempty"`
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// DeadlineSeconds bounds the session's lifetime; when it expires
	// the session is quarantined with its durable state intact
	// (0 = the daemon's Budget.Deadline, negative = no deadline).
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
}

func (c SessionConfig) kind() string {
	if c.Kind == "" {
		return KindWindowed
	}
	return c.Kind
}

// validate rejects configurations before any disk state is created.
// Clusterer-level options are additionally validated by the clusterer
// constructors; this layer checks what the serving path itself needs.
func (c SessionConfig) validate() error {
	switch c.kind() {
	case KindWindowed, KindStream:
	default:
		return fmt.Errorf("%w: kind %q (want %q or %q)", ErrBadRequest, c.Kind, KindWindowed, KindStream)
	}
	if c.Dim <= 0 || c.Dim > math.MaxUint16 {
		return fmt.Errorf("%w: dim %d out of range [1, %d]", ErrBadRequest, c.Dim, math.MaxUint16)
	}
	if c.K <= 0 {
		return fmt.Errorf("%w: k must be positive", ErrBadRequest)
	}
	if c.ChunkPoints <= 0 {
		return fmt.Errorf("%w: chunk_points must be positive", ErrBadRequest)
	}
	if c.kind() == KindWindowed && c.WindowChunks <= 0 {
		return fmt.Errorf("%w: window_chunks must be positive for windowed sessions", ErrBadRequest)
	}
	if c.FsyncEvery < 0 || c.CheckpointEvery < 0 {
		return fmt.Errorf("%w: fsync_every and checkpoint_every must be non-negative", ErrBadRequest)
	}
	if _, ok := c.AdmissionCost(); !ok {
		return fmt.Errorf("%w: chunk_points, window_chunks, k and dim give a memory estimate beyond int64", ErrBadRequest)
	}
	return nil
}

// AdmissionCost is the working-set estimate the daemon charges a new
// session of this shape: the chunk buffer plus W+3 summaries for a
// windowed session, 2 for a stream. ok is false when the estimate does
// not fit in int64; validate refuses such a config.
func (c SessionConfig) AdmissionCost() (cost int64, ok bool) {
	summaries := 2
	if c.kind() == KindWindowed {
		summaries = c.WindowChunks + 3
	}
	return c.costEstimate(summaries)
}

// costEstimate is the working-set estimate liveCost charges for a
// session retaining summaries k-centroid summaries: the chunk buffer
// plus the summaries, 8 bytes per coordinate and weight. ok is false
// when the estimate does not fit in int64.
func (c SessionConfig) costEstimate(summaries int) (cost int64, ok bool) {
	buffer, ok1 := mulNonNegative(c.ChunkPoints, c.Dim, 8)
	retained, ok2 := mulNonNegative(summaries, c.K, 8*(c.Dim+1))
	if !ok1 || !ok2 || buffer > math.MaxInt64-retained {
		return 0, false
	}
	return buffer + retained, true
}

// mulNonNegative multiplies factors, reporting false when one is
// negative (a count that wrapped) or the product overflows int64.
func mulNonNegative(factors ...int) (int64, bool) {
	p := int64(1)
	for _, f := range factors {
		if f < 0 || f > 0 && p > math.MaxInt64/int64(f) {
			return 0, false
		}
		p *= int64(f)
	}
	return p, true
}

// newClusterer builds the session's empty clusterer: windowed or stream,
// by kind.
func (c SessionConfig) newClusterer() (*streamkm.WindowedClusterer, *streamkm.StreamClusterer, error) {
	if c.kind() == KindWindowed {
		win, err := streamkm.NewWindowedClusterer(c.Dim, c.windowedOptions())
		return win, nil, err
	}
	str, err := streamkm.NewStreamClusterer(c.Dim, c.streamOptions())
	return nil, str, err
}

func (c SessionConfig) windowedOptions() streamkm.WindowedOptions {
	return streamkm.WindowedOptions{
		K:             c.K,
		ChunkPoints:   c.ChunkPoints,
		WindowChunks:  c.WindowChunks,
		Restarts:      c.Restarts,
		Epsilon:       c.Epsilon,
		MaxIterations: c.MaxIterations,
		Seed:          c.Seed,
		MergeSolver:   c.MergeSolver,
		ResyncEvery:   c.ResyncEvery,
	}
}

func (c SessionConfig) streamOptions() streamkm.Options {
	return streamkm.Options{
		K:             c.K,
		ChunkPoints:   c.ChunkPoints,
		Restarts:      c.Restarts,
		Epsilon:       c.Epsilon,
		MaxIterations: c.MaxIterations,
		Seed:          c.Seed,
		MergeSolver:   c.MergeSolver,
		Summarizer:    c.Summarizer,
		SeedMethod:    c.SeedMethod,
		CoresetSize:   c.CoresetSize,
	}
}

// Session lifecycle states.
const (
	stateActive int32 = iota
	stateQuarantined
	stateClosing
	stateClosed
)

func stateName(s int32) string {
	switch s {
	case stateActive:
		return "active"
	case stateQuarantined:
		return "quarantined"
	case stateClosing:
		return "closing"
	default:
		return "closed"
	}
}

type ingestBatch struct {
	points [][]float64
	reply  chan ingestReply
}

type ingestReply struct {
	applied uint64
	durable uint64
	err     error
}

// session is one hosted clusterer plus its durability and liveness
// machinery. A single worker goroutine owns the clusterer and the
// WAL; queries borrow them through lockc (a context-aware semaphore,
// so a wedged worker can never wedge a query past its own timeout);
// handlers submit ingest work through a bounded queue and read the
// progress counters as atomics.
type session struct {
	id  string
	cfg SessionConfig
	srv *Server
	dir string

	win *streamkm.WindowedClusterer // kind "windowed"
	str *streamkm.StreamClusterer   // kind "stream"
	wal *wal

	// lockc serializes clusterer+WAL access: worker holds it per
	// batch, queries hold it per snapshot.
	lockc chan struct{}

	queue  chan *ingestBatch
	enqMu  sync.RWMutex // guards qClosed against concurrent close(queue)
	closed bool         // queue closed; named closed to read at call sites

	applied atomic.Uint64 // points applied to the in-memory clusterer
	durable atomic.Uint64 // points guaranteed on disk (fsync or checkpoint)
	cost    atomic.Int64  // working-set estimate charged to the server budget

	// worker-owned durability cadence counters
	pendingSync     int
	sinceCheckpoint int
	fsyncEvery      int
	checkpointEvery int

	hb     govern.Heartbeat
	cancel context.CancelCauseFunc
	ctx    context.Context
	done   chan struct{} // worker exited

	wdStop   chan struct{}
	wdOnce   sync.Once
	wdDone   chan struct{}
	deadline atomic.Pointer[time.Timer]

	state  atomic.Int32
	reason atomic.Value // string: why quarantined/closed

	created time.Time
}

func (s *session) stateReason() string {
	if v := s.reason.Load(); v != nil {
		return v.(string)
	}
	return ""
}

func (s *session) setReason(r string) { s.reason.Store(r) }

// kindName returns the session's kind string.
func (s *session) kindName() string { return s.cfg.kind() }

// failed reports whether the session is a recovery husk: its on-disk
// state exists but could not be rebuilt, so it has no clusterer and
// no worker. Operations fail until an operator deletes it.
func (s *session) failed() bool { return s.win == nil && s.str == nil }

// acquire takes the clusterer lock, giving up when ctx is done.
func (s *session) acquire(ctx context.Context) error {
	select {
	case s.lockc <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

func (s *session) release() { <-s.lockc }

// closeQueue stops new enqueues and closes the queue exactly once;
// every shutdown path (drain, finish, evict, quarantine) goes through
// it before cancelling the worker, so the worker's final sweep over
// the closed queue always terminates and every queued batch gets a
// reply.
func (s *session) closeQueue() {
	s.enqMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.enqMu.Unlock()
}

// enqueue submits a batch, refusing immediately when the queue is
// full (the caller maps that to 503 + Retry-After) or closed.
func (s *session) enqueue(b *ingestBatch) error {
	s.enqMu.RLock()
	defer s.enqMu.RUnlock()
	if s.closed {
		if s.state.Load() == stateQuarantined {
			return fmt.Errorf("%w: %s", ErrQuarantined, s.stateReason())
		}
		return ErrClosed
	}
	select {
	case s.queue <- b:
		return nil
	default:
		return ErrBusy
	}
}

// stopWatchdog releases the watchdog goroutine and the deadline
// timer; safe to call from any shutdown path, any number of times.
func (s *session) stopWatchdog() {
	s.wdOnce.Do(func() { close(s.wdStop) })
	if t := s.deadline.Load(); t != nil {
		t.Stop()
	}
}

// run is the session worker: it applies ingest batches in arrival
// order, journaling each point to the WAL before pushing it into the
// clusterer, and drives the fsync/checkpoint cadences. It exits when
// the queue closes (drain/finish/evict) or its context is cancelled
// (quarantine), sweeping any still-queued batches with an error reply
// on the way out.
func (s *session) run() {
	defer close(s.done)
	defer func() {
		cause := context.Cause(s.ctx)
		if cause == nil {
			cause = ErrClosed
		}
		for b := range s.queue {
			b.reply <- ingestReply{err: cause}
		}
	}()
	for {
		select {
		case <-s.ctx.Done():
			return
		case b, ok := <-s.queue:
			if !ok {
				return
			}
			s.hb.Begin()
			rep := s.applyBatch(b.points)
			s.hb.End()
			b.reply <- rep
			if rep.err == nil {
				s.srv.m.ingestBatches.Inc()
				s.srv.m.ingestPoints.Add(int64(len(b.points)))
			}
		}
	}
}

// applyBatch journals and applies one batch under the clusterer lock.
// A WAL failure quarantines the session (its durable prefix is
// intact); a checkpoint failure is survivable (the WAL keeps
// growing, the next compaction retries).
func (s *session) applyBatch(points [][]float64) ingestReply {
	start := time.Now()
	if err := s.acquire(s.ctx); err != nil {
		return ingestReply{err: err}
	}
	defer s.release()
	if inj := s.srv.cfg.injectApply; inj != nil {
		if err := inj.InvokeContext(s.ctx, "serve-apply"); err != nil {
			return ingestReply{err: err}
		}
	}
	for _, p := range points {
		seq := s.applied.Load() + 1
		if err := s.walWrite(seq, p); err != nil {
			s.srv.quarantine(s, fmt.Errorf("wal write failed: %w", err))
			return ingestReply{err: fmt.Errorf("%w: wal write failed: %v", ErrQuarantined, err)}
		}
		if err := s.push(p); err != nil {
			// The WAL now holds a point the clusterer rejected; memory
			// and disk have diverged, which only a restart reconciles.
			s.srv.quarantine(s, fmt.Errorf("clusterer rejected journaled point: %w", err))
			return ingestReply{err: fmt.Errorf("%w: %v", ErrQuarantined, err)}
		}
		s.applied.Store(seq)
		s.pendingSync++
		s.sinceCheckpoint++
		s.hb.Beat()
		if s.pendingSync >= s.fsyncEvery {
			if err := s.syncWAL(); err != nil {
				s.srv.quarantine(s, fmt.Errorf("wal fsync failed: %w", err))
				return ingestReply{err: fmt.Errorf("%w: wal fsync failed: %v", ErrQuarantined, err)}
			}
		}
	}
	if s.sinceCheckpoint >= s.checkpointEvery {
		s.compact()
	}
	s.noteCost()
	s.srv.m.ingestSeconds.Observe(time.Since(start).Seconds())
	return ingestReply{applied: s.applied.Load(), durable: s.durable.Load()}
}

func (s *session) walWrite(seq uint64, p []float64) error {
	if inj := s.srv.cfg.injectWAL; inj != nil {
		if err := inj.InvokeContext(s.ctx, "serve-wal"); err != nil {
			return err
		}
	}
	return s.wal.Append(seq, p)
}

func (s *session) push(p []float64) error {
	if s.win != nil {
		return s.win.Push(p)
	}
	return s.str.Push(p)
}

func (s *session) syncWAL() error {
	if inj := s.srv.cfg.injectWAL; inj != nil {
		if err := inj.InvokeContext(s.ctx, "serve-wal-sync"); err != nil {
			return err
		}
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.durable.Store(s.applied.Load())
	s.pendingSync = 0
	s.srv.m.walFsyncs.Inc()
	return nil
}

// compact replaces the checkpoint with the clusterer's current state
// and truncates the WAL. Failure is non-fatal by design: the
// checkpoint write is atomic (the old checkpoint survives), the WAL
// is untouched, so durability falls back to the journal and the next
// cadence boundary retries — a full disk degrades compaction, never
// correctness.
func (s *session) compact() {
	if err := s.writeCheckpoint(); err != nil {
		s.srv.m.checkpointErrors.Inc()
		return
	}
	if err := s.wal.Reset(); err != nil {
		// The checkpoint is durable but the journal could not be
		// truncated; appending at an unknown offset would corrupt it.
		s.srv.quarantine(s, fmt.Errorf("wal reset failed: %w", err))
		return
	}
	s.durable.Store(s.applied.Load())
	s.pendingSync = 0
	s.sinceCheckpoint = 0
	s.srv.m.checkpoints.Inc()
}

func (s *session) writeCheckpoint() error {
	if inj := s.srv.cfg.injectCheckpoint; inj != nil {
		if err := inj.InvokeContext(s.ctx, "serve-checkpoint"); err != nil {
			return err
		}
	}
	return writeFileAtomic(s.dir, checkpointFileName, func(w io.Writer) error {
		if s.win != nil {
			return s.win.Checkpoint(w)
		}
		return s.str.Checkpoint(w)
	})
}

// finalFlush is the drain path's last act for a session, called after
// its worker has exited: make everything durable, preferring a fresh
// checkpoint and falling back to a synced WAL.
func (s *session) finalFlush() error {
	if s.failed() {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.durable.Store(s.applied.Load())
	if err := s.writeCheckpoint(); err != nil {
		// Non-fatal: the WAL is synced, so nothing is lost.
		s.srv.m.checkpointErrors.Inc()
		return nil
	}
	if err := s.wal.Reset(); err != nil {
		return err
	}
	s.srv.m.checkpoints.Inc()
	return nil
}

// liveCost estimates the session's working set in bytes: the chunk
// buffer plus the retained summaries. Stream sessions grow one
// k-centroid summary per chunk, so their estimate is refreshed after
// every batch; windowed sessions are flat by construction.
// validate refuses configs whose estimate overflows at creation; a
// stream's estimate that later outgrows int64 saturates.
func (s *session) liveCost() int64 {
	summaries := 0
	if s.win != nil {
		summaries = s.cfg.WindowChunks + 3
	} else if s.str != nil {
		summaries = s.str.Partials() + 2
	}
	cost, ok := s.cfg.costEstimate(summaries)
	if !ok {
		return math.MaxInt64
	}
	return cost
}

// noteCost charges the estimate's delta to the server's budget
// accounting. Called by the worker (under the session lock) and at
// create/evict time.
func (s *session) noteCost() {
	now := s.liveCost()
	prev := s.cost.Swap(now)
	s.srv.chargeMem(now - prev)
}
