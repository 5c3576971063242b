package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamkm"
	"streamkm/internal/fault"
	"streamkm/internal/govern"
	"streamkm/internal/obs"
)

// Config shapes a Server. The zero value of every field has a usable
// default except Root, which is required.
type Config struct {
	// Root is the daemon's state directory; sessions live under
	// Root/sessions/<id>.
	Root string
	// MaxSessions caps concurrently hosted sessions (0 = 64).
	MaxSessions int
	// Budget is the daemon's resource envelope, reusing the engine
	// governor's vocabulary: MemoryBytes caps the summed working-set
	// estimate of all sessions (admissions beyond it are refused with
	// 503, never absorbed); ProgressTimeout arms the per-session stall
	// watchdog; Deadline is the default session lifetime. Zero fields
	// are unenforced.
	Budget govern.Budget
	// QueueDepth is each session's ingest queue capacity in batches
	// (0 = 16); a full queue refuses with 503 + Retry-After.
	QueueDepth int
	// MaxBatchPoints caps the points accepted per ingest call (0 = 4096).
	MaxBatchPoints int
	// FsyncEvery is the default points between WAL fsyncs (0 = 64;
	// 1 = every point durable before its response).
	FsyncEvery int
	// CheckpointEvery is the default points between checkpoint
	// compactions (0 = 4096).
	CheckpointEvery int
	// RetryAfter is the hint returned with 503 refusals (0 = 1s).
	RetryAfter time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)

	// Test-only fault injection points (nil = no faults): checkpoint
	// file writes, WAL appends/fsyncs, and batch application (where
	// StallNth wedges a session for the watchdog to catch).
	injectCheckpoint *fault.Injector
	injectWAL        *fault.Injector
	injectApply      *fault.Injector
}

func (c Config) maxSessions() int {
	if c.MaxSessions <= 0 {
		return 64
	}
	return c.MaxSessions
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 16
	}
	return c.QueueDepth
}

func (c Config) maxBatchPoints() int {
	if c.MaxBatchPoints <= 0 {
		return 4096
	}
	return c.MaxBatchPoints
}

func (c Config) fsyncEvery() int {
	if c.FsyncEvery <= 0 {
		return 64
	}
	return c.FsyncEvery
}

func (c Config) checkpointEvery() int {
	if c.CheckpointEvery <= 0 {
		return 4096
	}
	return c.CheckpointEvery
}

func (c Config) retryAfter() time.Duration {
	if c.RetryAfter <= 0 {
		return time.Second
	}
	return c.RetryAfter
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// serveMetrics caches the daemon's instruments so hot paths never
// take the registry lock.
type serveMetrics struct {
	sessions         *obs.Gauge
	created          *obs.Counter
	recovered        *obs.Counter
	evicted          *obs.Counter
	quarantined      *obs.Counter
	ingestBatches    *obs.Counter
	ingestPoints     *obs.Counter
	queries          *obs.Counter
	walFsyncs        *obs.Counter
	checkpoints      *obs.Counter
	checkpointErrors *obs.Counter
	memBytes         *obs.Gauge
	ingestSeconds    *obs.Histogram
	querySeconds     *obs.Histogram
}

// Server hosts clustering sessions: creation with admission control,
// durable ingestion, snapshot queries, quarantine of stalled
// sessions, and graceful drain. All methods are safe for concurrent
// use.
type Server struct {
	cfg  Config
	root string
	reg  *obs.Registry
	m    serveMetrics

	mu       sync.RWMutex
	sessions map[string]*session

	draining atomic.Bool
	memUsed  atomic.Int64
	start    time.Time
}

// New opens (or creates) the state directory and recovers every
// session found in it: checkpoint decode plus WAL replay rebuilds
// each clusterer bit-identically at its last durable point. A
// session whose state cannot be rebuilt is kept as a quarantined
// husk — visible, deletable, never silently discarded.
func New(cfg Config) (*Server, error) {
	if cfg.Root == "" {
		return nil, errors.New("serve: Config.Root is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Root, sessionsDirName), 0o755); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:      cfg,
		root:     cfg.Root,
		reg:      reg,
		sessions: make(map[string]*session),
		start:    time.Now(),
		m: serveMetrics{
			sessions:         reg.Gauge(obs.ServeSessions, ""),
			created:          reg.Counter(obs.ServeSessionsCreated, ""),
			recovered:        reg.Counter(obs.ServeSessionsRecovered, ""),
			evicted:          reg.Counter(obs.ServeSessionsEvicted, ""),
			quarantined:      reg.Counter(obs.ServeSessionsQuarantined, ""),
			ingestBatches:    reg.Counter(obs.ServeIngestBatches, ""),
			ingestPoints:     reg.Counter(obs.ServeIngestPoints, ""),
			queries:          reg.Counter(obs.ServeQueries, ""),
			walFsyncs:        reg.Counter(obs.ServeWALFsyncs, ""),
			checkpoints:      reg.Counter(obs.ServeCheckpoints, ""),
			checkpointErrors: reg.Counter(obs.ServeCheckpointErrors, ""),
			memBytes:         reg.Gauge(obs.ServeMemBytes, ""),
			ingestSeconds:    reg.Histogram(obs.ServeIngestSeconds, "", obs.LatencyBuckets()),
			querySeconds:     reg.Histogram(obs.ServeQuerySeconds, "", obs.LatencyBuckets()),
		},
	}
	if err := s.recoverAll(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) reject(reason string) {
	s.reg.Counter(obs.ServeRejects, reason).Inc()
}

func (s *Server) chargeMem(delta int64) {
	s.m.memBytes.Set(s.memUsed.Add(delta))
}

// newSessionID draws a random, collision-resistant identifier.
func newSessionID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failing means the host is broken
	}
	return "s-" + hex.EncodeToString(b[:])
}

// buildSession wires the runtime around an already-constructed
// clusterer and registers it; srv.mu must be held by the caller.
func (s *Server) buildSession(cfg SessionConfig, win *streamkm.WindowedClusterer, str *streamkm.StreamClusterer, w *wal, applied uint64) *session {
	ctx, cancel := context.WithCancelCause(context.Background())
	sess := &session{
		id:              cfg.ID,
		cfg:             cfg,
		srv:             s,
		dir:             s.sessionDir(cfg.ID),
		win:             win,
		str:             str,
		wal:             w,
		lockc:           make(chan struct{}, 1),
		queue:           make(chan *ingestBatch, s.cfg.queueDepth()),
		fsyncEvery:      cfg.FsyncEvery,
		checkpointEvery: cfg.CheckpointEvery,
		ctx:             ctx,
		cancel:          cancel,
		done:            make(chan struct{}),
		wdStop:          make(chan struct{}),
		wdDone:          make(chan struct{}),
		created:         time.Now(),
	}
	if sess.fsyncEvery <= 0 {
		sess.fsyncEvery = s.cfg.fsyncEvery()
	}
	if sess.checkpointEvery <= 0 {
		sess.checkpointEvery = s.cfg.checkpointEvery()
	}
	sess.applied.Store(applied)
	sess.durable.Store(applied)
	s.sessions[cfg.ID] = sess
	s.m.sessions.Set(int64(len(s.sessions)))
	if sess.failed() {
		sess.state.Store(stateQuarantined)
		close(sess.done)
		close(sess.wdDone)
		return sess
	}
	sess.noteCost()
	go sess.run()
	if to := s.cfg.Budget.ProgressTimeout; to > 0 {
		probe := govern.Probe{
			Name:     "session:" + cfg.ID,
			Progress: sess.hb.Beats,
			Pending:  func() int64 { return sess.hb.InFlight() + int64(len(sess.queue)) },
		}
		go func() {
			govern.NewWatchdog(to, probe).Watch(sess.wdStop, func(err error) {
				s.quarantine(sess, err)
			})
			close(sess.wdDone)
		}()
	} else {
		close(sess.wdDone)
	}
	deadline := s.cfg.Budget.Deadline
	if cfg.DeadlineSeconds > 0 {
		deadline = time.Duration(cfg.DeadlineSeconds * float64(time.Second))
	} else if cfg.DeadlineSeconds < 0 {
		deadline = 0
	}
	if deadline > 0 {
		// Stored atomically: a tiny deadline can fire (and reach
		// stopWatchdog via quarantine) before this assignment lands.
		sess.deadline.Store(time.AfterFunc(deadline, func() {
			s.quarantine(sess, fmt.Errorf("session deadline %v exceeded", deadline))
		}))
	}
	return sess
}

// CreateSession admits and persists a new session. Refusals are
// immediate and typed: ErrDraining, ErrTooMany, ErrMemory (all 503
// at the HTTP layer), ErrExists, or a validation error.
func (s *Server) CreateSession(cfg SessionConfig) (*SessionInfo, error) {
	if s.draining.Load() {
		s.reject("draining")
		return nil, ErrDraining
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ID == "" {
		cfg.ID = newSessionID()
	} else if !validSessionID(cfg.ID) {
		return nil, fmt.Errorf("%w: invalid session id %q", ErrBadRequest, cfg.ID)
	}

	win, str, err := cfg.newClusterer()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		s.reject("draining")
		return nil, ErrDraining
	}
	if _, ok := s.sessions[cfg.ID]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, cfg.ID)
	}
	if len(s.sessions) >= s.cfg.maxSessions() {
		s.reject("session-limit")
		return nil, ErrTooMany
	}
	probe := &session{cfg: cfg, win: win, str: str}
	if budget, used, cost := s.cfg.Budget.MemoryBytes, s.memUsed.Load(), probe.liveCost(); budget > 0 && cost > budget-used {
		s.reject("memory")
		return nil, fmt.Errorf("%w: admitting session would need %d bytes over budget %d",
			ErrMemory, cost-(budget-used), budget)
	}

	dir := s.sessionDir(cfg.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	if err := saveMeta(dir, cfg); err != nil {
		cleanup()
		return nil, err
	}
	w, err := createWAL(filepath.Join(dir, walFileName), cfg.Dim)
	if err != nil {
		cleanup()
		return nil, err
	}
	sess := s.buildSession(cfg, win, str, w, 0)
	s.m.created.Inc()
	s.cfg.logf("serve: session %s created (kind=%s dim=%d k=%d)", cfg.ID, cfg.kind(), cfg.Dim, cfg.K)
	info := sess.info()
	return &info, nil
}

// recoverAll rebuilds every session directory found under the root.
func (s *Server) recoverAll() error {
	entries, err := os.ReadDir(filepath.Join(s.root, sessionsDirName))
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if !e.IsDir() || !validSessionID(e.Name()) {
			continue
		}
		if err := s.recoverSession(e.Name()); err != nil {
			// Keep the husk visible instead of failing the boot or
			// deleting data: the operator decides.
			s.cfg.logf("serve: session %s failed to recover: %v", e.Name(), err)
			husk := s.buildSession(SessionConfig{ID: e.Name()}, nil, nil, nil, 0)
			husk.setReason(fmt.Sprintf("recovery failed: %v", err))
			s.m.quarantined.Inc()
		}
	}
	return nil
}

// recoverSession rebuilds one session from its checkpoint and WAL;
// srv.mu must be held.
func (s *Server) recoverSession(id string) error {
	dir := s.sessionDir(id)
	cfg, err := loadMeta(dir)
	if err != nil {
		return err
	}
	cfg.ID = id
	if err := cfg.validate(); err != nil {
		return err
	}

	var win *streamkm.WindowedClusterer
	var str *streamkm.StreamClusterer
	var base uint64
	ckPath := filepath.Join(dir, checkpointFileName)
	if f, err := os.Open(ckPath); err == nil {
		if cfg.kind() == KindWindowed {
			win, err = streamkm.ResumeWindowedClusterer(f, cfg.windowedOptions())
			if err == nil {
				base = uint64(win.Consumed())
			}
		} else {
			str, err = streamkm.ResumeStreamClusterer(f, cfg.streamOptions())
			if err == nil {
				base = uint64(str.Pushed())
			}
		}
		f.Close()
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	} else if win, str, err = cfg.newClusterer(); err != nil {
		return err
	}

	push := func(seq uint64, p []float64) error {
		if win != nil {
			return win.Push(p)
		}
		return str.Push(p)
	}
	walPath := filepath.Join(dir, walFileName)
	last, reinit, err := replayWAL(walPath, cfg.Dim, base, push)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var w *wal
	if reinit {
		w, err = createWAL(walPath, cfg.Dim)
	} else {
		w, err = openWALAppend(walPath, cfg.Dim)
	}
	if err != nil {
		return err
	}
	s.buildSession(cfg, win, str, w, last)
	s.m.recovered.Inc()
	s.cfg.logf("serve: session %s recovered at seq %d (checkpoint %d + wal %d)", id, last, base, last-base)
	return nil
}

func (s *Server) lookup(id string) (*session, error) {
	s.mu.RLock()
	sess, ok := s.sessions[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return sess, nil
}

// IngestResult acknowledges an applied batch: Applied is the
// session's stream position after the batch; Durable is the prefix
// guaranteed to survive a crash.
type IngestResult struct {
	Applied uint64 `json:"applied"`
	Durable uint64 `json:"durable"`
}

// Ingest validates, journals, and applies a batch of points,
// blocking until the session's worker has processed it (so the
// response's positions are real) or ctx is done (the batch may still
// apply after the caller departs).
func (s *Server) Ingest(ctx context.Context, id string, points [][]float64) (IngestResult, error) {
	var zero IngestResult
	if s.draining.Load() {
		s.reject("draining")
		return zero, ErrDraining
	}
	sess, err := s.lookup(id)
	if err != nil {
		return zero, err
	}
	switch sess.state.Load() {
	case stateQuarantined:
		return zero, fmt.Errorf("%w: %s", ErrQuarantined, sess.stateReason())
	case stateClosing, stateClosed:
		return zero, ErrClosed
	}
	if len(points) == 0 {
		return IngestResult{Applied: sess.applied.Load(), Durable: sess.durable.Load()}, nil
	}
	if max := s.cfg.maxBatchPoints(); len(points) > max {
		return zero, fmt.Errorf("%w: batch of %d points exceeds limit %d", ErrBadRequest, len(points), max)
	}
	for i, p := range points {
		if len(p) != sess.cfg.Dim {
			return zero, fmt.Errorf("%w: point %d has dim %d, want %d", ErrBadRequest, i, len(p), sess.cfg.Dim)
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return zero, fmt.Errorf("%w: point %d has a non-finite coordinate", ErrBadRequest, i)
			}
		}
	}
	if budget := s.cfg.Budget.MemoryBytes; budget > 0 && s.memUsed.Load() > budget {
		s.reject("memory")
		return zero, fmt.Errorf("%w: working set %d bytes over budget %d", ErrMemory, s.memUsed.Load()-budget, budget)
	}

	b := &ingestBatch{points: points, reply: make(chan ingestReply, 1)}
	if err := sess.enqueue(b); err != nil {
		if errors.Is(err, ErrBusy) {
			s.reject("queue-full")
		}
		return zero, err
	}
	select {
	case rep := <-b.reply:
		if rep.err != nil {
			return zero, rep.err
		}
		return IngestResult{Applied: rep.applied, Durable: rep.durable}, nil
	case <-ctx.Done():
		return zero, context.Cause(ctx)
	}
}

// ClustersResult is the deterministic clustering answer: every field
// is a pure function of the points ingested, so two servers at the
// same stream position marshal byte-identical documents (timings are
// deliberately absent).
type ClustersResult struct {
	Consumed   uint64      `json:"consumed"`
	Durable    uint64      `json:"durable"`
	Partitions int         `json:"partitions"`
	LiveChunks int         `json:"live_chunks,omitempty"`
	MergeMSE   float64     `json:"merge_mse"`
	Weights    []float64   `json:"weights"`
	Centroids  [][]float64 `json:"centroids"`
}

// Clusters answers a windowed session's continuous query.
func (s *Server) Clusters(ctx context.Context, id string) (*ClustersResult, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if sess.state.Load() == stateQuarantined {
		return nil, fmt.Errorf("%w: %s", ErrQuarantined, sess.stateReason())
	}
	if sess.win == nil {
		return nil, fmt.Errorf("%w: clusters requires a windowed session", ErrWrongKind)
	}
	start := time.Now()
	if err := sess.acquire(ctx); err != nil {
		return nil, err
	}
	res, err := sess.win.Snapshot()
	live := sess.win.LiveChunks()
	sess.release()
	s.m.queries.Inc()
	s.m.querySeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotReady, err)
	}
	return &ClustersResult{
		Consumed:   sess.applied.Load(),
		Durable:    sess.durable.Load(),
		Partitions: res.Partitions,
		LiveChunks: live,
		MergeMSE:   res.MergeMSE,
		Weights:    res.Weights,
		Centroids:  res.Centroids,
	}, nil
}

// Finish completes a stream session: remaining queued batches are
// applied first (the queue is closed and drained), then the final
// merge runs and the session — answered, done — is removed along
// with its on-disk state.
func (s *Server) Finish(ctx context.Context, id string) (*ClustersResult, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if sess.str == nil {
		return nil, fmt.Errorf("%w: finish requires a stream session", ErrWrongKind)
	}
	if !sess.state.CompareAndSwap(stateActive, stateClosing) {
		if sess.state.Load() == stateQuarantined {
			return nil, fmt.Errorf("%w: %s", ErrQuarantined, sess.stateReason())
		}
		return nil, ErrClosed
	}
	sess.closeQueue()
	select {
	case <-sess.done:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
	start := time.Now()
	if err := sess.acquire(ctx); err != nil {
		return nil, err
	}
	res, ferr := sess.str.Finish()
	sess.release()
	s.m.queries.Inc()
	s.m.querySeconds.Observe(time.Since(start).Seconds())
	if ferr != nil {
		// Leave the session closing but intact on disk; a restart can
		// retry the finish from the durable state.
		sess.setReason(fmt.Sprintf("finish failed: %v", ferr))
		return nil, fmt.Errorf("%w: %v", ErrNotReady, ferr)
	}
	s.removeSession(sess, true)
	return &ClustersResult{
		Consumed:   sess.applied.Load(),
		Durable:    sess.durable.Load(),
		Partitions: res.Partitions,
		MergeMSE:   res.MergeMSE,
		Weights:    res.Weights,
		Centroids:  res.Centroids,
	}, nil
}

// Evict deletes a session and its on-disk state. Queued batches are
// answered with ErrClosed; an eviction racing another eviction loses
// with ErrNotFound.
func (s *Server) Evict(ctx context.Context, id string) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		s.m.sessions.Set(int64(len(s.sessions)))
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	sess.state.Store(stateClosing)
	sess.closeQueue()
	sess.cancel(ErrClosed)
	sess.stopWatchdog()
	select {
	case <-sess.done:
	case <-ctx.Done():
		// A truly wedged worker can't be joined; the session is
		// already unroutable, so give up waiting rather than wedge
		// the caller too.
		return context.Cause(ctx)
	}
	<-sess.wdDone
	sess.state.Store(stateClosed)
	if sess.wal != nil {
		sess.wal.Close()
	}
	if err := os.RemoveAll(sess.dir); err != nil {
		return err
	}
	s.chargeMem(-sess.cost.Swap(0))
	s.m.evicted.Inc()
	s.cfg.logf("serve: session %s evicted", id)
	return nil
}

// removeSession forgets an already-stopped session, optionally
// deleting its files (the finish path).
func (s *Server) removeSession(sess *session, deleteFiles bool) {
	s.mu.Lock()
	if cur, ok := s.sessions[sess.id]; ok && cur == sess {
		delete(s.sessions, sess.id)
		s.m.sessions.Set(int64(len(s.sessions)))
	}
	s.mu.Unlock()
	sess.cancel(ErrClosed)
	sess.stopWatchdog()
	<-sess.wdDone
	sess.state.Store(stateClosed)
	if sess.wal != nil {
		sess.wal.Close()
	}
	if deleteFiles {
		os.RemoveAll(sess.dir)
	}
	s.chargeMem(-sess.cost.Swap(0))
	s.m.evicted.Inc()
}

// quarantine isolates a session that stopped behaving — a stall, a
// WAL failure, an expired deadline — without touching its durable
// state. The queue is closed first so the worker's exit sweep
// answers every queued batch, then the worker context is cancelled.
func (s *Server) quarantine(sess *session, cause error) {
	if !sess.state.CompareAndSwap(stateActive, stateQuarantined) {
		return
	}
	sess.setReason(cause.Error())
	sess.closeQueue()
	sess.cancel(fmt.Errorf("%w: %v", ErrQuarantined, cause))
	sess.stopWatchdog()
	s.m.quarantined.Inc()
	s.cfg.logf("serve: session %s quarantined: %v", sess.id, cause)
}

// SessionInfo is a session's public status.
type SessionInfo struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Reason   string `json:"reason,omitempty"`
	Dim      int    `json:"dim"`
	K        int    `json:"k"`
	Consumed uint64 `json:"consumed"`
	Durable  uint64 `json:"durable"`
}

func (s *session) info() SessionInfo {
	return SessionInfo{
		ID:       s.id,
		Kind:     s.kindName(),
		State:    stateName(s.state.Load()),
		Reason:   s.stateReason(),
		Dim:      s.cfg.Dim,
		K:        s.cfg.K,
		Consumed: s.applied.Load(),
		Durable:  s.durable.Load(),
	}
}

// Info returns one session's status.
func (s *Server) Info(id string) (*SessionInfo, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	info := sess.info()
	return &info, nil
}

// List returns every session's status, sorted by ID.
func (s *Server) List() []SessionInfo {
	s.mu.RLock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess.info())
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SessionReport renders a windowed session's query-path metrics.
func (s *Server) SessionReport(ctx context.Context, id string) (*obs.Report, error) {
	sess, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if sess.win == nil {
		return nil, fmt.Errorf("%w: report requires a windowed session", ErrWrongKind)
	}
	if err := sess.acquire(ctx); err != nil {
		return nil, err
	}
	defer sess.release()
	return sess.win.Report(), nil
}

// Report renders the daemon's metrics as the engine's schema-stable
// run-report document; /metrics serves its JSON.
func (s *Server) Report() *obs.Report {
	return &obs.Report{
		Schema:         obs.ReportSchema,
		ElapsedSeconds: time.Since(s.start).Seconds(),
		Metrics:        s.reg.Snapshot(),
	}
}

// Draining reports whether a drain has begun (readiness gate).
func (s *Server) Draining() bool { return s.draining.Load() }

// Uptime is how long the server has been running.
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }

// SessionCount returns the number of hosted sessions.
func (s *Server) SessionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

// Drain is the SIGTERM path: stop admissions, let every session's
// queued work apply, flush a final durable checkpoint per session,
// and release all background goroutines. In-flight queries keep
// working throughout (the HTTP server's own shutdown bounds those).
// Drain returns the first flush error but keeps draining the rest;
// a clean drain means exit 0.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.RLock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.RUnlock()

	var firstErr error
	for _, sess := range sessions {
		sess.closeQueue()
	}
	for _, sess := range sessions {
		select {
		case <-sess.done:
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = context.Cause(ctx)
			}
			// Force the worker out; its queue is already closed.
			sess.cancel(ErrDraining)
			<-sess.done
		}
		sess.stopWatchdog()
		<-sess.wdDone
		// Quarantined sessions keep their last durable state as-is:
		// their WAL or worker already misbehaved, so a flush could
		// not be trusted anyway.
		if sess.state.Load() != stateQuarantined {
			if err := sess.finalFlush(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("serve: flushing session %s: %w", sess.id, err)
			}
		}
		if sess.wal != nil {
			sess.wal.Close()
		}
		if sess.state.Load() == stateActive {
			sess.state.Store(stateClosed)
		}
		sess.cancel(ErrDraining)
	}
	s.cfg.logf("serve: drained %d sessions", len(sessions))
	return firstErr
}
