// Command perfbench is the repository's end-to-end benchmark. It drives
// a spawned streamkmd daemon over its HTTP API with closed-loop clients
// and measures, from outside the daemon, what a user sees: operation
// latency, points per second and set-up time. With -trace 1 it reports
// instead the daemon's own per-layer figures, read from its /metrics
// counters and histograms before and after the window. After the daemon
// has stopped, every stream is replayed through the public streamkm
// library in-process, and each answer the daemon gave must match the
// library's bit for bit.
//
// Workloads, each driven by two closed-loop clients (see workload.go
// for where each parameter comes from):
//
//	cells-batch   the paper's grid-cell job: each op creates a stream
//	              session for one of 16 generated 12500-point cells,
//	              uploads it in 10 chunk-sized requests and finishes it
//	              (k=40, R=10 partial k-means per chunk, then the merge)
//	serve-ingest  64 windowed sessions; each op ingests a 64-point batch
//	serve-mix     64 windowed sessions; each op ingests 8 64-point
//	              batches into one session and then reads its snapshot
//
// Usage (from the repository root; perfbench/run.py builds the daemon
// and this harness and passes -daemon and -work):
//
//	perfbench -workload serve-ingest -seed 1 -seconds 10 -trace 0 \
//	    -daemon .bench_build/bin/streamkmd -work .bench_build/work
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"streamkm/internal/obs"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload: cells-batch, serve-ingest or serve-mix")
		seed      = flag.Uint64("seed", 1, "input seed; equal seeds give equal inputs")
		seconds   = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace     = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		daemonBin = flag.String("daemon", "", "streamkmd binary to benchmark")
		work      = flag.String("work", "", "directory for daemon state (created, then removed)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *daemonBin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload cells-batch|serve-ingest|serve-mix -seed N -seconds S -trace 0|1 -daemon BIN -work DIR")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatal(err)
	}
	b := &bench{
		w:      w,
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		bin:    *daemonBin,
		dir:    dir,
	}
	res, err := b.run()
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times set-up is repeated; setup_s is the
// median. Set-up is a daemon start on a fresh state directory until
// /readyz answers. Creating the windowed sessions is left out of it and
// reported as the per-layer session_create_ms: each create fsyncs
// files and a directory, and on a shared disk fsync latency moved from
// one run to the next by up to 3x, which no repetition within a run
// averages out.
const setupReps = 25

func (b *bench) run() (*result, error) {
	if err := b.inputs(); err != nil {
		return nil, err
	}
	// Finished cell sessions leave the daemon, so two at a time suffice.
	maxSessions := b.w.streams + clients
	var setup []float64
	for r := 0; r < setupReps; r++ {
		state := filepath.Join(b.dir, "state-"+strconv.Itoa(r))
		start := time.Now()
		d, err := startDaemon(b.bin, state, maxSessions)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		if r == setupReps-1 {
			b.d = d
			break
		}
		// SIGKILL, not a drain: the daemon holds no session yet, and it
		// installs its SIGTERM handler only after it starts serving, so
		// a SIGTERM this soon after /readyz can kill it undrained.
		if err := d.kill(); err != nil {
			return nil, err
		}
		os.RemoveAll(state)
	}
	if err := b.open(); err != nil {
		return nil, errors.Join(err, b.d.stop())
	}
	before, after, err := b.drive()
	if err := errors.Join(err, b.d.stop()); err != nil {
		return nil, err
	}
	ok := b.check()

	res := &result{Correct: ok, Metrics: map[string]metric{}}
	var ops []opRec
	var ingestMs, answerMs []float64
	createMs := b.createMs
	for _, c := range b.clients {
		res.Attempted += len(c.ops)
		if c.err != nil {
			res.Attempted++
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: client %d failed: %v\n", c.id, c.err)
		}
		ops = append(ops, c.ops...)
		ingestMs = append(ingestMs, c.ingestMs...)
		answerMs = append(answerMs, c.answerMs...)
		createMs = append(createMs, c.createMs...)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation completed in the %v window", b.window)
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	if !b.trace {
		tput, p50, p90 := sliceStats(ops, b.window)
		put("op_p50_ms", "ms", p50)
		put("op_p90_ms", "ms", p90)
		put("points_per_s", "points/s", tput)
		put("setup_s", "s", quantile(setup, 0.5))
	} else {
		// Means over the window (and the final reads): the daemon's
		// histograms give sums and counts, and a mean is what a sum
		// over the client's requests can be set against.
		points := float64(counterDelta(before, after, obs.ServeIngestPoints))
		apply := 1e3 * histMean(before, after, obs.ServeIngestSeconds)
		ingest := mean(ingestMs)
		put("ingest_http_ms", "ms", ingest)
		put("apply_ms", "ms", apply)
		put("serving_overhead_ms", "ms", ingest-apply)
		put("answer_http_ms", "ms", mean(answerMs))
		put("query_ms", "ms", 1e3*histMean(before, after, obs.ServeQuerySeconds))
		put("session_create_ms", "ms", mean(createMs))
		put("wal_fsyncs_per_point", "count", float64(counterDelta(before, after, obs.ServeWALFsyncs))/points)
		put("checkpoints_per_point", "count", float64(counterDelta(before, after, obs.ServeCheckpoints))/points)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d ops=%d correct=%t\n", b.w.name, b.seed, res.Attempted, ok)
	return res, nil
}

// drive runs the workload against the set-up daemon: the prefill, the
// measured window and the final reads, with the daemon's metrics read
// just before the window and after the final reads.
func (b *bench) drive() (before, after obs.Snapshot, err error) {
	if err := b.prefill(); err != nil {
		return before, after, err
	}
	if before, err = b.d.metrics(); err != nil {
		return before, after, err
	}
	b.measure()
	b.finalAnswers()
	after, err = b.d.metrics()
	return before, after, err
}

func counterDelta(before, after obs.Snapshot, name string) int64 {
	return after.Counter(name, "") - before.Counter(name, "")
}

// histMean is the mean of the observations a daemon histogram took
// between two snapshots (0 if it took none).
func histMean(before, after obs.Snapshot, name string) float64 {
	a := after.Histogram(name, "")
	if a == nil {
		return 0
	}
	n, sum := a.Count, a.Sum
	if bh := before.Histogram(name, ""); bh != nil {
		n, sum = n-bh.Count, sum-bh.Sum
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// minSlice is the shortest slice the measured window is cut into;
// opsPerSlice is the fewest operations a slice should hold on average,
// so that its p90 has a few samples above it.
const (
	minSlice    = time.Second
	opsPerSlice = 25
)

// sliceStats cuts the window into equal slices and returns the medians,
// over the slices, of each slice's throughput and of the p50 and p90
// latency of the operations that ended in it. A host stall confined to
// a few slices moves these far less than it moves whole-window
// aggregates. An operation's points are spread over the slices it
// spans, so the throughput of a slice is not quantised to whole
// operations.
func sliceStats(ops []opRec, window time.Duration) (pointsPerS, p50, p90 float64) {
	n := max(min(int(window/minSlice), len(ops)/opsPerSlice), 1)
	slice := window / time.Duration(n)
	points := make([]float64, n)
	lat := make([][]float64, n)
	for _, op := range ops {
		start := op.end - time.Duration(op.ms*float64(time.Millisecond))
		for i := max(int(start/slice), 0); i < n && time.Duration(i)*slice < op.end; i++ {
			lo := max(start, time.Duration(i)*slice)
			hi := min(op.end, time.Duration(i+1)*slice)
			points[i] += float64(op.points) * float64(hi-lo) / float64(op.end-start)
		}
		if i := int(op.end / slice); i < n {
			lat[i] = append(lat[i], op.ms)
		}
	}
	var tput, q50, q90 []float64
	for i := range points {
		tput = append(tput, points[i]/slice.Seconds())
		if len(lat[i]) > 0 {
			q50 = append(q50, quantile(lat[i], 0.5))
			q90 = append(q90, quantile(lat[i], 0.9))
		}
	}
	return quantile(tput, 0.5), quantile(q50, 0.5), quantile(q90, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
