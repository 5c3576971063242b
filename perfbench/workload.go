package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"streamkm/internal/loadgen"
)

// clients is the number of closed-loop clients, each with one request
// in flight: two keep both CPUs of a small machine busy, while more only
// add queueing, which makes the figures swing with scheduling noise.
const clients = 2

// workload is one traffic shape against the daemon. Every parameter is
// taken from a source in the repository, named where it is set.
type workload struct {
	name   string
	kind   string             // session kind: "stream" (one per cell job) or "windowed"
	corpus loadgen.CorpusSpec // input generator; Seed comes from -seed
	k      int
	// restarts is the k-means restarts per chunk and merge (0 = the
	// daemon's default).
	restarts int
	chunk    int // session chunk_points
	batch    int // points per ingest request
	streams  int // distinct inputs: cells (stream kind) or sessions (windowed)

	cellPoints int // stream kind: points per cell job

	// windowed kind
	windowChunks int
	pool         int // distinct batches per session, cycled
	prefill      int // batches per session ingested before the window
	// queryEvery > 0 makes one op queryEvery ingests into a session and
	// then a snapshot read of it; 0 makes one op a single ingest.
	queryEvery int
}

// serveSessions, serveSpec, serveBatch and serveQueryEvery are the load
// profile of cmd/loadgen -profile ci (the committed load-report
// baseline): 64 windowed sessions, k=8, 256-point chunks, a window of 4
// chunks, 64-point ingest batches, a snapshot query every 8 batches, 6-d
// points from an 8-cluster mixture, and the daemon's default WAL fsync
// cadence.
const (
	serveSessions   = 64
	serveBatch      = 64
	serveQueryEvery = 8
)

var serveSpec = loadgen.SessionSpec{Dim: 6, K: 8, ChunkPoints: 256, WindowChunks: 4}

var workloads = map[string]*workload{
	// The paper's grid-cell job (DESIGN.md §1, §4): 6-d cells drawn from
	// the 40-component cell mixture, k=40, R=10 restarts, 10-split
	// partial/merge. N=12500 is the cell size of the paper's sweep
	// (250..75000) at which partial/merge starts to win on MSE; each
	// ingest request carries one chunk.
	"cells-batch": {
		name: "cells-batch", kind: "stream",
		corpus: loadgen.CorpusSpec{Shape: loadgen.ShapeMixture, Dim: 6, Clusters: 40},
		k:      40, restarts: 10, chunk: 1250, batch: 1250,
		streams: 16, cellPoints: 12500,
	},
	"serve-ingest": {
		name: "serve-ingest", kind: "windowed",
		corpus: loadgen.CorpusSpec{Shape: loadgen.ShapeMixture, Dim: serveSpec.Dim, Clusters: 8},
		k:      serveSpec.K, chunk: serveSpec.ChunkPoints, batch: serveBatch,
		streams: serveSessions, windowChunks: serveSpec.WindowChunks,
		pool: 64, prefill: serveSpec.WindowChunks * serveSpec.ChunkPoints / serveBatch,
	},
	"serve-mix": {
		name: "serve-mix", kind: "windowed",
		corpus: loadgen.CorpusSpec{Shape: loadgen.ShapeMixture, Dim: serveSpec.Dim, Clusters: 8},
		k:      serveSpec.K, chunk: serveSpec.ChunkPoints, batch: serveBatch,
		streams: serveSessions, windowChunks: serveSpec.WindowChunks,
		pool: 64, prefill: serveSpec.WindowChunks * serveSpec.ChunkPoints / serveBatch,
		queryEvery: serveQueryEvery,
	},
}

// bench is one run of one workload.
type bench struct {
	w      *workload
	seed   uint64
	window time.Duration
	trace  bool
	bin    string
	dir    string

	d       *daemon
	streams []*stream
	clients []*client
	// pos counts the batches each windowed session has acknowledged;
	// only the session's owning client writes its entry.
	pos      []int
	createMs []float64 // windowed session creates
}

// stream is one generated input: the points a cell job uploads or a
// session ingests, cut into request-sized batches and pre-encoded as
// the daemon's ingest body, so no client-side encoding runs inside the
// measured window.
type stream struct {
	batches [][][]float64
	bodies  [][]byte
}

// client is one closed-loop client and what it observed.
type client struct {
	id       int
	ops      []opRec
	createMs []float64 // cell session creates
	ingestMs []float64 // every acknowledged ingest request
	answerMs []float64 // every snapshot read or finish
	answers  []answerRec
	err      error
}

// opRec is one completed operation.
type opRec struct {
	end    time.Duration // since the window opened
	ms     float64
	points int // points it got acknowledged
}

// answerRec is one clustering answer the daemon gave after pos batches
// of the stream had been acknowledged.
type answerRec struct {
	stream, pos int
	body        []byte
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// inputs generates every stream the workload sends from the seed,
// through the load harness's corpus generator: stream i is the corpus's
// session i.
func (b *bench) inputs() error {
	w := b.w
	spec := w.corpus
	spec.Seed = b.seed
	corpus, err := loadgen.NewCorpus(spec)
	if err != nil {
		return err
	}
	points := w.pool * w.batch
	if w.kind == "stream" {
		points = w.cellPoints
	}
	b.streams = make([]*stream, w.streams)
	for i := range b.streams {
		pts := corpus.Stream(i).Batch(points)
		st := &stream{}
		for lo := 0; lo < len(pts); lo += w.batch {
			batch := pts[lo:min(lo+w.batch, len(pts))]
			body, err := json.Marshal(map[string]any{"points": batch})
			if err != nil {
				return err
			}
			st.batches = append(st.batches, batch)
			st.bodies = append(st.bodies, body)
		}
		b.streams[i] = st
	}
	b.clients = make([]*client, clients)
	for i := range b.clients {
		b.clients[i] = &client{id: i}
	}
	b.pos = make([]int, w.streams)
	return nil
}

// sessionSeed derives a stream's clustering seed from the input seed.
func (b *bench) sessionSeed(stream int) uint64 {
	return b.seed*0x9e3779b97f4a7c15 + uint64(stream) + 1
}

// create creates one session and appends its latency to createMs.
func (b *bench) create(id string, stream int, createMs *[]float64) error {
	w := b.w
	cfg := map[string]any{
		"id": id, "kind": w.kind, "dim": w.corpus.Dim, "k": w.k,
		"chunk_points": w.chunk, "seed": b.sessionSeed(stream),
	}
	if w.restarts > 0 {
		cfg["restarts"] = w.restarts
	}
	if w.kind == "windowed" {
		cfg["window_chunks"] = w.windowChunks
	}
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := b.d.call(http.MethodPost, "/v1/sessions", body); err != nil {
		return err
	}
	*createMs = append(*createMs, ms(time.Since(t0)))
	return nil
}

func sessionPath(s int) string { return fmt.Sprintf("/v1/sessions/s-%d", s) }

// open creates the windowed sessions.
func (b *bench) open() error {
	if b.w.kind != "windowed" {
		return nil
	}
	for s := range b.streams {
		if err := b.create(fmt.Sprintf("s-%d", s), s, &b.createMs); err != nil {
			return err
		}
	}
	return nil
}

// eachClient runs f for every client concurrently and waits for all.
func (b *bench) eachClient(f func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// owned lists the windowed sessions client c drives, round robin.
func (b *bench) owned(c *client) []int {
	var s []int
	for i := c.id; i < b.w.streams; i += clients {
		s = append(s, i)
	}
	return s
}

// prefill fills each windowed session's window before measuring, so
// the run sees steady-state sessions whose chunks rotate out.
func (b *bench) prefill() error {
	b.eachClient(func(c *client) {
		for _, s := range b.owned(c) {
			for b.pos[s] < b.w.prefill && c.err == nil {
				st := b.streams[s]
				if _, c.err = b.d.call(http.MethodPost, sessionPath(s)+"/points", st.bodies[b.pos[s]%len(st.bodies)]); c.err == nil {
					b.pos[s]++
				}
			}
		}
	})
	for _, c := range b.clients {
		if c.err != nil {
			return fmt.Errorf("prefill: %w", c.err)
		}
	}
	return nil
}

// measure runs every client's closed loop until the window ends.
func (b *bench) measure() {
	start := time.Now()
	end := start.Add(b.window)
	b.eachClient(func(c *client) {
		for time.Now().Before(end) {
			t0 := time.Now()
			points, err := b.op(c, len(c.ops))
			if err != nil {
				c.err = err
				return
			}
			c.ops = append(c.ops, opRec{end: time.Since(start), ms: ms(time.Since(t0)), points: points})
		}
	})
}

// op is the client's n-th closed-loop operation: a whole cell job for
// the stream kind; for windowed, one ingest into the next of its
// sessions, or with queryEvery that many ingests and a snapshot read.
// It returns the number of points acknowledged.
func (b *bench) op(c *client, n int) (int, error) {
	w := b.w
	if w.kind == "stream" {
		cell := (c.id + n*clients) % w.streams
		id := fmt.Sprintf("cell-%d-%d", c.id, n)
		if err := b.create(id, cell, &c.createMs); err != nil {
			return 0, err
		}
		st := b.streams[cell]
		for _, body := range st.bodies {
			if err := b.ingest(c, "/v1/sessions/"+id, body); err != nil {
				return 0, err
			}
		}
		if err := b.answer(c, http.MethodPost, "/v1/sessions/"+id+"/finish", cell, len(st.bodies)); err != nil {
			return 0, err
		}
		return w.cellPoints, nil
	}
	mine := b.owned(c)
	s := mine[n%len(mine)]
	st := b.streams[s]
	ingests := max(w.queryEvery, 1)
	for i := 0; i < ingests; i++ {
		if err := b.ingest(c, sessionPath(s), st.bodies[b.pos[s]%len(st.bodies)]); err != nil {
			return 0, err
		}
		b.pos[s]++
	}
	if w.queryEvery > 0 {
		if err := b.answer(c, http.MethodGet, sessionPath(s)+"/clusters", s, b.pos[s]); err != nil {
			return 0, err
		}
	}
	return ingests * w.batch, nil
}

func (b *bench) ingest(c *client, session string, body []byte) error {
	t0 := time.Now()
	if _, err := b.d.call(http.MethodPost, session+"/points", body); err != nil {
		return err
	}
	c.ingestMs = append(c.ingestMs, ms(time.Since(t0)))
	return nil
}

func (b *bench) answer(c *client, method, path string, stream, pos int) error {
	t0 := time.Now()
	body, err := b.d.call(method, path, nil)
	if err != nil {
		return err
	}
	c.answerMs = append(c.answerMs, ms(time.Since(t0)))
	c.answers = append(c.answers, answerRec{stream, pos, body})
	return nil
}

// finalAnswers reads every windowed session's snapshot after the
// window, so each session's whole stream is checked.
func (b *bench) finalAnswers() {
	if b.w.kind != "windowed" {
		return
	}
	for _, c := range b.clients {
		for _, s := range b.owned(c) {
			if c.err != nil {
				break
			}
			if err := b.answer(c, http.MethodGet, sessionPath(s)+"/clusters", s, b.pos[s]); err != nil {
				c.err = fmt.Errorf("final query: %w", err)
			}
		}
	}
}
