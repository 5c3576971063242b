package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/engine"
	"streamkm/internal/fault"
	"streamkm/internal/govern"
	"streamkm/internal/obs"
	"streamkm/internal/stream"
)

// The coordinator side: a Pool of worker connections implementing
// engine.RemotePartial. Each chunk's execution is a lease — the chunk is
// assigned to one free worker, and if that worker dies, stalls, or
// returns garbage, the lease moves to a survivor under the shared
// RetryPolicy's backoff. A worker accumulating consecutive failures is
// permanently evicted; when every worker is gone, Partial fails with
// ErrNoWorkers and the engine's supervision takes over (quarantine and
// survivor-only merge under WithDegradedResults). Duplicate or stale
// results — a worker retrying after a lost ACK — are recognized by chunk
// identity, acknowledged, counted, and dropped; the engine's journal is
// the second, independent line of defense against double-counting.

// ErrNoWorkers means every worker has been evicted; no further remote
// capacity exists.
var ErrNoWorkers = errors.New("dist: no live workers")

// PoolConfig tunes a coordinator-side worker pool.
type PoolConfig struct {
	// Addrs lists the workers ("host:port"), one connection each.
	Addrs []string
	// Retry is the per-chunk lease budget: how many times a chunk is
	// re-leased (with backoff) before its failure propagates to the
	// engine. The zero value (no retries) makes every worker failure
	// chunk-fatal; a MaxRetries of at least len(Addrs) lets a chunk
	// survive the loss of every worker but one.
	Retry stream.RetryPolicy
	// DialTimeout bounds each connection attempt (0 = 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds one chunk round-trip on a worker — ship,
	// remote compute, result return (0 = 60s). A worker exceeding it is
	// treated as failed for that lease.
	RequestTimeout time.Duration
	// ProgressTimeout, when positive, arms a per-worker stall watchdog
	// on the worker's heartbeat: a worker holding a chunk without
	// progress for this long is evicted mid-request (its connection is
	// closed, failing the pending lease over to a survivor).
	ProgressTimeout time.Duration
	// FailureLimit is the consecutive-failure count that permanently
	// evicts a worker (0 = 3).
	FailureLimit int
	// Seed derives per-chunk backoff jitter; use the query seed so the
	// whole run — including its retry timing — replays deterministically.
	Seed uint64
	// Obs, when non-nil, receives per-worker metrics (dist_* families,
	// labeled by worker address).
	Obs *obs.Registry
	// Inject, when non-nil, injects faults into the coordinator's
	// outgoing frames (chunks and ACKs).
	Inject *fault.NetInjector
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.FailureLimit <= 0 {
		c.FailureLimit = 3
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	return c
}

// workerConn is one worker's connection state. The pool hands a worker
// to exactly one lease at a time (via the free list), so consecFails
// needs no lock; conn is mutex-guarded and evicted is atomic because
// the watchdog may evict — and close the connection of — a worker the
// lease currently holds.
type workerConn struct {
	addr string
	hb   govern.Heartbeat

	mu   sync.Mutex
	conn net.Conn

	consecFails int
	evicted     atomic.Bool

	chunksDone *obs.Counter
	retries    *obs.Counter
	evictions  *obs.Counter
	dups       *obs.Counter
	bytesSent  *obs.Counter
	bytesRecv  *obs.Counter
}

// Pool is a fault-tolerant set of worker connections. It implements
// engine.RemotePartial; plug it into an execution with
// engine.WithRemoteWorkers(pool) and close it after the run.
type Pool struct {
	cfg     PoolConfig
	workers []*workerConn
	free    chan *workerConn
	live    atomic.Int64
	allDead chan struct{}
	dead    sync.Once

	workersLive *obs.Gauge

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewPool dials every worker (with the retry policy applied to
// transient dial failures) and returns the pool. Workers that stay
// unreachable through the retry budget are evicted at birth; NewPool
// fails only when no worker at all could be reached.
func NewPool(ctx context.Context, cfg PoolConfig) (*Pool, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("dist: pool needs at least one worker address")
	}
	p := &Pool{
		cfg:         cfg,
		free:        make(chan *workerConn, len(cfg.Addrs)),
		allDead:     make(chan struct{}),
		workersLive: cfg.Obs.Gauge(obs.DistWorkersLive, ""),
		stop:        make(chan struct{}),
	}
	for _, addr := range cfg.Addrs {
		w := &workerConn{
			addr:       addr,
			chunksDone: cfg.Obs.Counter(obs.DistChunksDone, addr),
			retries:    cfg.Obs.Counter(obs.DistRetries, addr),
			evictions:  cfg.Obs.Counter(obs.DistEvictions, addr),
			dups:       cfg.Obs.Counter(obs.DistDupResults, addr),
			bytesSent:  cfg.Obs.Counter(obs.DistBytesSent, addr),
			bytesRecv:  cfg.Obs.Counter(obs.DistBytesRecv, addr),
		}
		if err := p.connect(ctx, w); err != nil {
			w.evicted.Store(true)
			w.evictions.Inc()
			p.workers = append(p.workers, w)
			continue
		}
		p.workers = append(p.workers, w)
		p.live.Add(1)
		p.free <- w
		p.watch(w)
	}
	if p.live.Load() == 0 {
		p.Close()
		return nil, fmt.Errorf("dist: %w: none of %d worker(s) reachable", ErrNoWorkers, len(cfg.Addrs))
	}
	p.workersLive.Set(p.live.Load())
	return p, nil
}

// connect dials and handshakes one worker, retrying transient failures
// under the pool's retry policy.
func (p *Pool) connect(ctx context.Context, w *workerConn) error {
	seed := p.cfg.Seed ^ hashString(w.addr)
	_, err := p.cfg.Retry.Attempts(ctx, seed, nil, func(int) error {
		_, derr := w.dial(p.cfg)
		return derr
	})
	return err
}

// dial opens and handshakes the worker's connection, storing it as the
// worker's current conn and returning it.
func (w *workerConn) dial(cfg PoolConfig) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", w.addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(cfg.DialTimeout))
	if _, err := sendFrame(conn, cfg.Inject, w.addr, frameHello, encodeHello()); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, _, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if typ != frameWelcome {
		conn.Close()
		return nil, fmt.Errorf("%w: expected welcome, got frame type %d", ErrBadFrame, typ)
	}
	if err := decodeHello(payload); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	w.mu.Lock()
	w.conn = conn
	w.mu.Unlock()
	return conn, nil
}

// getConn returns the worker's current connection (nil = needs a dial).
func (w *workerConn) getConn() net.Conn {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn
}

// closeConn closes and forgets the worker's connection; safe to call
// from the watchdog while a lease is mid-read (the read unblocks).
func (w *workerConn) closeConn() {
	w.mu.Lock()
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
	w.mu.Unlock()
}

// watch arms the per-worker stall watchdog (a no-op when the pool has
// no progress timeout). The watchdog trips only while the worker holds
// a lease without progress; tripping evicts it, which closes its
// connection and fails the pending lease over to a survivor.
func (p *Pool) watch(w *workerConn) {
	if p.cfg.ProgressTimeout <= 0 {
		return
	}
	wd := govern.NewWatchdog(p.cfg.ProgressTimeout, w.hb.Probe(w.addr))
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		wd.Watch(p.stop, func(err error) {
			p.evict(w)
		})
	}()
}

// evict permanently removes a worker: close its connection, drop it
// from rotation, and close allDead when it was the last one. Idempotent.
func (p *Pool) evict(w *workerConn) {
	if !w.evicted.CompareAndSwap(false, true) {
		return
	}
	w.closeConn()
	w.evictions.Inc()
	n := p.live.Add(-1)
	p.workersLive.Set(n)
	if n == 0 {
		p.dead.Do(func() { close(p.allDead) })
	}
}

// acquire leases any free live worker, or reports ErrNoWorkers once
// every worker has been evicted.
func (p *Pool) acquire(ctx context.Context) (*workerConn, error) {
	for {
		select {
		case w := <-p.free:
			if w.evicted.Load() {
				continue // evicted while idle (pool closing)
			}
			return w, nil
		case <-p.allDead:
			return nil, ErrNoWorkers
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// release returns a worker to rotation after a lease it answered: a
// result, or a fail frame for the leased chunk (a refusal or a failed
// computation, with the connection intact).
func (p *Pool) release(w *workerConn) {
	if w.evicted.Load() {
		return
	}
	p.free <- w
}

// fail records a failed lease: the broken connection is dropped (the
// next lease redials), and FailureLimit consecutive failures evict the
// worker permanently.
func (p *Pool) fail(w *workerConn) {
	w.closeConn()
	w.consecFails++
	w.retries.Inc()
	if w.consecFails >= p.cfg.FailureLimit {
		p.evict(w)
		return
	}
	if w.evicted.Load() {
		return // the watchdog got there first
	}
	p.free <- w
}

// Live returns the number of workers still in rotation.
func (p *Pool) Live() int { return int(p.live.Load()) }

// Close tears the pool down: connections close, watchdogs stop, and all
// pool goroutines join. Safe to call twice.
func (p *Pool) Close() error {
	p.stopOnce.Do(func() { close(p.stop) })
	for _, w := range p.workers {
		w.evicted.Store(true)
		w.closeConn()
	}
	p.wg.Wait()
	return nil
}

// Partial implements engine.RemotePartial: lease the chunk to a worker,
// re-leasing to survivors under the retry policy, and return the result
// plus the full assignment trail for the journal's exactly-once audit.
func (p *Pool) Partial(ctx context.Context, c engine.RemoteChunk) (*core.PartialResult, []engine.Assignment, error) {
	seed := p.cfg.Seed ^ chunkSeed(c.Cell, c.Chunk)
	var (
		res   *core.PartialResult
		trail []engine.Assignment
	)
	_, err := p.cfg.Retry.Attempts(ctx, seed, nil, func(int) error {
		w, err := p.acquire(ctx)
		if err != nil {
			return err
		}
		pr, err := w.do(ctx, p.cfg, c)
		if err != nil {
			trail = append(trail, engine.Assignment{Worker: w.addr, Err: err.Error()})
			// A worker that answered with a fail frame is healthy: only
			// transport errors count toward its eviction.
			var rf *remoteFailure
			if errors.As(err, &rf) {
				p.release(w)
			} else {
				p.fail(w)
			}
			return err
		}
		trail = append(trail, engine.Assignment{Worker: w.addr})
		w.consecFails = 0
		p.release(w)
		res = pr
		return nil
	})
	if err != nil {
		return nil, trail, fmt.Errorf("dist: cell %d chunk %d: %w", c.Cell, c.Chunk, err)
	}
	return res, trail, nil
}

// do runs one lease on this worker: ship the chunk, await the matching
// result, acknowledge it. Stale results from an earlier abandoned lease
// on this connection are acknowledged, counted as duplicates, and
// skipped — the coordinator-side half of at-least-once dedup.
func (w *workerConn) do(ctx context.Context, cfg PoolConfig, c engine.RemoteChunk) (*core.PartialResult, error) {
	conn := w.getConn()
	if conn == nil {
		var err error
		if conn, err = w.dial(cfg); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w.hb.Begin()
	defer w.hb.End()
	payload, err := encodeChunk(c)
	if err != nil {
		return nil, err
	}
	// A context cancellation mid-request must unblock the pending read:
	// closing the connection is the portable way to interrupt net I/O.
	cancelDone := make(chan struct{})
	defer close(cancelDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-cancelDone:
		}
	}()
	n, err := sendFrame(conn, cfg.Inject, w.addr, frameChunk, payload)
	w.bytesSent.Add(n)
	if err != nil {
		return nil, err
	}
	for {
		conn.SetReadDeadline(time.Now().Add(cfg.RequestTimeout))
		typ, pl, rn, err := readFrame(conn)
		w.bytesRecv.Add(rn)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
		w.hb.Beat()
		switch typ {
		case frameResult:
			r, err := decodeResult(pl)
			if err != nil {
				return nil, err
			}
			an, aerr := sendFrame(conn, cfg.Inject, w.addr, frameAck, encodeAck(r.cell, r.chunk))
			w.bytesSent.Add(an)
			if r.cell != c.Cell || r.chunk != c.Chunk {
				// A duplicate return for a lease this connection once
				// held; the journal would reject it too, but dropping it
				// here keeps the pipeline clean.
				w.dups.Inc()
				if aerr != nil {
					return nil, aerr
				}
				continue
			}
			// A failed ACK send is the worker's problem (it will resend
			// into the dedup path); the result is already in hand.
			conn.SetReadDeadline(time.Time{})
			w.chunksDone.Inc()
			return r.res, nil
		case frameFail:
			fcell, fchunk, msg, err := decodeFail(pl)
			if err != nil {
				return nil, err
			}
			if fcell != c.Cell || fchunk != c.Chunk {
				w.dups.Inc()
				continue
			}
			conn.SetReadDeadline(time.Time{})
			return nil, &remoteFailure{addr: w.addr, msg: msg}
		default:
			return nil, fmt.Errorf("%w: expected result, got frame type %d", ErrBadFrame, typ)
		}
	}
}

// remoteFailure is a worker's fail frame for the leased chunk: the
// worker refused the chunk or its computation failed, and the
// connection is still healthy. A refusal (the message carries
// ErrUnknownOperator's text) matches ErrUnknownOperator under errors.Is.
type remoteFailure struct {
	addr, msg string
}

func (e *remoteFailure) Error() string {
	return fmt.Sprintf("dist: worker %s: remote failure: %s", e.addr, e.msg)
}

func (e *remoteFailure) Is(target error) bool {
	return target == ErrUnknownOperator && strings.Contains(e.msg, ErrUnknownOperator.Error())
}

// chunkSeed mixes a chunk's identity into a jitter seed so each chunk's
// re-lease backoff schedule is independently reproducible.
func chunkSeed(cell, chunk int) uint64 {
	return uint64(cell)*0x9e3779b97f4a7c15 ^ uint64(chunk)*0xbf58476d1ce4e5b9
}

// hashString is FNV-1a, for deriving per-address seeds.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
