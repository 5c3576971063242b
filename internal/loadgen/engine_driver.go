package loadgen

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"

	"streamkm"
	"streamkm/internal/serve"
)

// EngineDriver drives streamkm.WindowedClusterer instances in-process:
// the pure engine ceiling, with no HTTP, WAL, or fsync on the path.
// Crash/Recover measure the durability analogue the library offers —
// checkpoint images resumed via ResumeWindowedClusterer — so the
// engine and daemon recovery numbers bracket the cost of the daemon's
// extra machinery.
//
// MemoryBudget, when positive, reproduces the serving layer's
// admission rule in-process: each session is charged its estimated
// working set (chunk buffer plus retained window summaries) and
// admissions beyond the budget are refused, which is what the
// degradation scenario measures.
type EngineDriver struct {
	MemoryBudget int64

	mu       sync.Mutex
	spec     SessionSpec
	sessions []*engineSession
	images   [][]byte // checkpoint images captured by Crash
	clock    Clock
}

type engineSession struct {
	mu  sync.Mutex
	win *streamkm.WindowedClusterer
}

// NewEngineDriver returns an engine driver over clock (nil = RealClock).
func NewEngineDriver(clock Clock) *EngineDriver {
	if clock == nil {
		clock = RealClock{}
	}
	return &EngineDriver{clock: clock}
}

// Name identifies the driver in reports.
func (d *EngineDriver) Name() string { return "engine" }

// SessionConfig is the daemon's create body for load session i of
// spec's shape: the daemon driver sends it, and both drivers charge
// its AdmissionCost.
func (spec SessionSpec) SessionConfig(i int) serve.SessionConfig {
	return serve.SessionConfig{
		ID:           loadSessionID(i),
		Kind:         serve.KindWindowed,
		Dim:          spec.Dim,
		K:            spec.K,
		ChunkPoints:  spec.ChunkPoints,
		WindowChunks: spec.WindowChunks,
		Seed:         spec.sessionSeed(i),
		FsyncEvery:   spec.FsyncEvery,
	}
}

// sessionSeed gives each session its own seed stream so N sessions
// don't run N copies of one RNG.
func (spec SessionSpec) sessionSeed(i int) uint64 {
	return spec.Seed + uint64(i)*0x9e3779b97f4a7c15
}

func (spec SessionSpec) windowedOptions() streamkm.WindowedOptions {
	return streamkm.WindowedOptions{
		K:            spec.K,
		ChunkPoints:  spec.ChunkPoints,
		WindowChunks: spec.WindowChunks,
		Seed:         spec.Seed,
	}
}

// Open admits up to n sessions, stopping at the memory budget. Each
// session is charged the daemon's admission estimate for the shape; a
// shape whose estimate overflows int64 is refused, as the daemon
// refuses it.
func (d *EngineDriver) Open(spec SessionSpec, n int) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.spec = spec
	d.sessions, d.images = nil, nil
	cost, ok := spec.SessionConfig(0).AdmissionCost()
	if !ok {
		return 0, fmt.Errorf("loadgen: session shape %+v: memory estimate beyond int64", spec)
	}
	var used int64
	for i := 0; i < n; i++ {
		if d.MemoryBudget > 0 && cost > d.MemoryBudget-used {
			break
		}
		win, err := streamkm.NewWindowedClusterer(spec.Dim, sessionOptions(spec, len(d.sessions)))
		if err != nil {
			return len(d.sessions), err
		}
		d.sessions = append(d.sessions, &engineSession{win: win})
		used += cost
	}
	return len(d.sessions), nil
}

// sessionOptions derives per-session options, with the session's own
// seed.
func sessionOptions(spec SessionSpec, session int) streamkm.WindowedOptions {
	o := spec.windowedOptions()
	o.Seed = spec.sessionSeed(session)
	return o
}

func (d *EngineDriver) session(i int) (*engineSession, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.sessions) {
		return nil, fmt.Errorf("loadgen: engine session %d out of range [0, %d)", i, len(d.sessions))
	}
	s := d.sessions[i]
	if s.win == nil {
		return nil, errors.New("loadgen: engine session crashed; call Recover first")
	}
	return s, nil
}

// Ingest pushes the batch into one session.
func (d *EngineDriver) Ingest(session int, points [][]float64) error {
	s, err := d.session(session)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range points {
		if err := s.win.Push(p); err != nil {
			return err
		}
	}
	return nil
}

// Query takes a windowed snapshot.
func (d *EngineDriver) Query(session int) error {
	s, err := d.session(session)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.win.Snapshot(); err != nil {
		if strings.Contains(err.Error(), "window is empty") {
			return ErrNotReady
		}
		return err
	}
	return nil
}

// Crash captures each session's durable image (its checkpoint) and
// drops the live clusterers — the in-process analogue of a process
// death with checkpoints on disk.
func (d *EngineDriver) Crash() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.images = make([][]byte, len(d.sessions))
	for i, s := range d.sessions {
		var buf bytes.Buffer
		s.mu.Lock()
		err := s.win.Checkpoint(&buf)
		s.win = nil
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("loadgen: checkpointing session %d: %w", i, err)
		}
		d.images[i] = buf.Bytes()
	}
	return nil
}

// Recover resumes every session from its image and answers one
// snapshot query per session.
func (d *EngineDriver) Recover() (RecoveryTiming, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var t RecoveryTiming
	if d.images == nil {
		return t, errors.New("loadgen: Recover without Crash")
	}
	start := d.clock.Now()
	for i, img := range d.images {
		win, err := streamkm.ResumeWindowedClusterer(bytes.NewReader(img), sessionOptions(d.spec, i))
		if err != nil {
			return t, fmt.Errorf("loadgen: resuming session %d: %w", i, err)
		}
		d.sessions[i].win = win
	}
	t.ReadySeconds = nowSeconds(d.clock, start)
	for i, s := range d.sessions {
		if _, err := s.win.Snapshot(); err != nil {
			return t, fmt.Errorf("loadgen: post-recovery snapshot of session %d: %w", i, err)
		}
	}
	t.QuerySeconds = nowSeconds(d.clock, start)
	t.Sessions = len(d.sessions)
	d.images = nil
	return t, nil
}

// Close releases every session.
func (d *EngineDriver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sessions, d.images = nil, nil
	return nil
}
