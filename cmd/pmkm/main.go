// Command pmkm clusters grid-bucket files with partial/merge k-means
// through the query engine: the optimizer sizes chunks from the memory
// budget and picks the partial-operator clone count from the worker
// budget, then the executor runs the pipelined plan over all cells.
//
// Example:
//
//	pmkm -data data/ -k 40 -restarts 10 -mem 64MB -workers 4
//
// Engine features compose on one executor, so the flags stack:
// -max-retries N supervises the plan, retrying failed chunks with
// exponential backoff and restarting the plan from its execution
// journal after a crash; -adaptive starts with one partial clone and
// lets the re-optimizer scale up under backlog (combining both gives a
// supervised adaptive run); -trace prints the operator-span timeline;
// -salvage reads damaged bucket files for their valid prefix (warning
// on stderr) instead of aborting on the first corrupt byte.
//
// The partial stage is a pluggable summarizer operator: -summarizer
// selects kmeans (the paper's partial k-means, default), ecvq
// (entropy-constrained VQ with an adaptive per-chunk cluster count;
// tune with -ecvq-maxk and -ecvq-lambda), or coreset (a StreamKM++-
// style coreset tree; tune with -coreset-size). -seed-method swaps the
// k-means seeding strategy (random, heaviest, kmeans++, kmeans||); it
// applies to the partial stage for -summarizer=kmeans and always to
// the merge. Every operator honors the bit-identical contract: equal
// seeds give equal centroids whether chunks run locally, resume from a
// journal, or ship to -remote workers.
//
// The resource governor adds hard bounds: -deadline caps wall-clock
// time, -progress-timeout arms a stall watchdog that cancels and
// retries a wedged stage, and -mem-budget shrinks chunk size and
// fan-out until the in-flight working set fits. With -allow-degraded a
// run that exhausts a bound returns the clustering of every surviving
// partition, prints a one-line structured quality summary on stderr,
// and exits with status 3 (instead of 1 for a hard failure).
//
// Observability: -report out.json writes the engine's unified run
// report (schema streamkm.run-report/v1) with per-stage counters,
// latency histograms, and governor decisions; -progress prints a live
// one-line ticker to stderr (chunks/cells done, ETA, degraded count);
// -cpuprofile and -memprofile write pprof profiles, and -pprof ADDR
// serves net/http/pprof for the run's duration.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamkm"
	"streamkm/internal/buildinfo"
	"streamkm/internal/dataset"
	"streamkm/internal/dist"
	"streamkm/internal/engine"
	"streamkm/internal/govern"
	"streamkm/internal/grid"
	"streamkm/internal/obs"
	"streamkm/internal/stream"
)

// exitDegraded is pmkm's exit status for a run that completed with a
// degraded (partial) result — distinct from 1, the hard-failure status,
// so scripts can tell "partial answer" from "no answer".
const exitDegraded = 3

func main() {
	os.Exit(realMain())
}

// realMain runs the command and returns its exit status, so deferred
// teardown (stopping the CPU profiler, writing the heap profile) runs
// before the process exits.
func realMain() int {
	var (
		data       = flag.String("data", "data", "directory of .skmb bucket files")
		k          = flag.Int("k", 40, "clusters per cell")
		restarts   = flag.Int("restarts", 10, "seed sets per partition")
		mem        = flag.String("mem", "8MB", "memory budget for one partial operator (e.g. 512KB, 8MB)")
		workers    = flag.Int("workers", 4, "worker budget for cloned operators")
		rworkers   = flag.Int("restart-workers", 0, "goroutines fanning one chunk's restarts (0/1 = serial; any value is bit-identical)")
		strategy   = flag.String("strategy", "random", "slicing strategy: random, salami, spatial")
		merge      = flag.String("merge", "collective", "merge mode: collective or incremental")
		mergeSolv  = flag.String("merge-solver", "", "merge-stage Lloyd kernel: lloyd (default) or minibatch (mini-batch gradient steps; faster on large merge pools)")
		summarizer = flag.String("summarizer", "kmeans", "chunk-summarizer operator: kmeans, ecvq, coreset")
		seedMethod = flag.String("seed-method", "", "k-means seeding: random, heaviest, kmeans++, kmeans|| (default: random partial, heaviest merge)")
		coresetSz  = flag.Int("coreset-size", 0, "weighted points kept per chunk by -summarizer=coreset (0 = 10*k)")
		ecvqMaxK   = flag.Int("ecvq-maxk", 0, "max clusters per chunk for -summarizer=ecvq (0 = 2*k)")
		ecvqLambda = flag.Float64("ecvq-lambda", 0, "rate-distortion trade-off for -summarizer=ecvq (0 = pure distortion)")
		seed       = flag.Uint64("seed", 1, "random seed")
		explain    = flag.Bool("explain", false, "print the logical and physical plans and exit")
		adaptive   = flag.Bool("adaptive", false, "start with 1 partial clone and let the re-optimizer scale up under backlog")
		csvPath    = flag.String("csv", "", "cluster a single CSV file of numeric columns instead of a bucket directory")
		snapEvery  = flag.Int("snapshot-every", 0, "with -csv: stream the rows through a sliding-window clusterer and query a snapshot every N points (0 = one-shot engine run)")
		windowSz   = flag.Int("window", 50, "chunks covered by the sliding window for -snapshot-every")
		showTrace  = flag.Bool("trace", false, "print the operator-span timeline after execution")
		maxRetries = flag.Int("max-retries", 0, "run supervised: retry each failed chunk up to N times and restart the plan from its journal after a crash")
		salvage    = flag.Bool("salvage", false, "recover the valid prefix of damaged bucket files instead of aborting")
		remote     = flag.String("remote", "", "comma-separated streamkm-worker addresses (host:port,...): ship each chunk to a remote worker and merge centrally")

		deadline     = flag.Duration("deadline", 0, "wall-clock bound for the whole run (0 = unlimited)")
		progressTO   = flag.Duration("progress-timeout", 0, "stall watchdog: cancel a stage that holds pending work but makes no progress for this long (0 = off)")
		memBudget    = flag.String("mem-budget", "0", "runtime memory budget for in-flight point data (e.g. 512KB); shrinks chunk size and fan-out to fit (0 = unlimited)")
		allowDegrade = flag.Bool("allow-degraded", false, "on deadline/stall/permanent chunk failure, return the surviving partitions as a degraded result (exit status 3) instead of failing")

		reportPath = flag.String("report", "", "write the unified JSON run report (schema streamkm.run-report/v1) to this file")
		progress   = flag.Bool("progress", false, "print a live progress line (chunks/cells done, ETA, degraded count) to stderr every second")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
		version    = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("pmkm"))
		return 0
	}
	stopProfiling, err := startProfiling(*cpuProfile, *memProfile, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmkm:", err)
		return 1
	}
	defer stopProfiling()
	sum := sumFlags{
		summarizer: *summarizer, seedMethod: *seedMethod, mergeSolver: *mergeSolv,
		coresetSize: *coresetSz, ecvqMaxK: *ecvqMaxK, ecvqLambda: *ecvqLambda,
	}
	if *snapEvery > 0 {
		if *csvPath == "" {
			fmt.Fprintln(os.Stderr, "pmkm: -snapshot-every requires -csv")
			return 1
		}
		if err := runWindowed(*csvPath, *k, *restarts, *snapEvery, *windowSz, *mem, *mergeSolv, *seed, *reportPath); err != nil {
			fmt.Fprintln(os.Stderr, "pmkm:", err)
			return 1
		}
		return 0
	}
	if *csvPath != "" {
		if err := runCSV(*csvPath, *k, *restarts, *mem, *workers, *rworkers, *strategy, *merge, *seed, sum); err != nil {
			fmt.Fprintln(os.Stderr, "pmkm:", err)
			return 1
		}
		return 0
	}
	cfg := runConfig{
		data: *data, mem: *mem, strategy: *strategy, merge: *merge, sum: sum,
		k: *k, restarts: *restarts, workers: *workers, restartWorkers: *rworkers, seed: *seed,
		explain: *explain, adaptive: *adaptive, trace: *showTrace,
		maxRetries: *maxRetries, salvage: *salvage, remote: *remote,
		deadline: *deadline, progressTimeout: *progressTO,
		memBudget: *memBudget, allowDegraded: *allowDegrade,
		report: *reportPath, progress: *progress,
	}
	degraded, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmkm:", err)
		return 1
	}
	if degraded != nil {
		// One structured line for scripts, on stderr so the result table
		// on stdout stays clean, then the distinct degraded exit status.
		fmt.Fprintf(os.Stderr, "pmkm: %s\n", degraded)
		return exitDegraded
	}
	return 0
}

// startProfiling arms the requested profiling hooks and returns the
// teardown that stops the CPU profile and writes the heap profile.
func startProfiling(cpuPath, memPath, pprofAddr string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	if pprofAddr != "" {
		// The blank net/http/pprof import registered its handlers on the
		// default mux. Listen synchronously so a bad address fails fast.
		ln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "pmkm: pprof server on http://%s/debug/pprof/\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "pmkm: cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pmkm: memprofile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pmkm: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "pmkm: memprofile:", err)
			}
		}
	}, nil
}

// sumFlags carries the operator-selection flags shared by both
// invocation forms.
type sumFlags struct {
	summarizer, seedMethod string
	mergeSolver            string
	coresetSize, ecvqMaxK  int
	ecvqLambda             float64
}

// apply stamps the operator flags onto a query.
func (s sumFlags) apply(q *engine.Query) {
	q.Summarizer = s.summarizer
	q.SeedMethod = s.seedMethod
	q.MergeSolver = s.mergeSolver
	q.CoresetSize = s.coresetSize
	q.ECVQMaxK = s.ecvqMaxK
	q.ECVQLambda = s.ecvqLambda
}

// runWindowed streams a CSV file through the facade's sliding-window
// clusterer, querying a snapshot every N points — the continuous-query
// regime served by the incremental merge index. The per-chunk budget is
// derived from -mem exactly like the engine's planner would: points
// that fit the budget, floored at k.
func runWindowed(path string, k, restarts, every, window int, mem, solver string, seed uint64, reportPath string) error {
	budget, err := parseBytes(mem)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	set, err := dataset.ReadCSV(f, dataset.CSVOptions{})
	closeErr := f.Close()
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	chunkPoints := int(budget / int64(set.Dim()*8))
	if chunkPoints < k {
		chunkPoints = k
	}
	w, err := streamkm.NewWindowedClusterer(set.Dim(), streamkm.WindowedOptions{
		K:            k,
		ChunkPoints:  chunkPoints,
		WindowChunks: window,
		Restarts:     restarts,
		Seed:         seed,
		MergeSolver:  solver,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	var last *streamkm.Result
	queries := 0
	for i := 0; i < set.Len(); i++ {
		if err := w.Push(set.At(i)); err != nil {
			return err
		}
		// The index needs at least k representatives before it can answer.
		if (i+1)%every == 0 && w.Consumed() >= k {
			last, err = w.Snapshot()
			if err != nil {
				return err
			}
			queries++
		}
	}
	if last == nil || w.Consumed()%every != 0 {
		if w.Consumed() < k {
			return fmt.Errorf("stream held %d points, need at least k=%d", w.Consumed(), k)
		}
		last, err = w.Snapshot()
		if err != nil {
			return err
		}
		queries++
	}
	elapsed := time.Since(start)
	fmt.Printf("streamed %d points (dim %d) through a %d-chunk window of %d-point chunks in %v\n",
		w.Consumed(), set.Dim(), window, chunkPoints, elapsed)
	stats := w.SnapshotStats()
	fmt.Printf("%d snapshots: %d cache hits, %d warm starts, %d resyncs, %d refine iterations\n",
		queries, stats.CacheHits, stats.WarmStarts, stats.Resyncs, stats.RefineIterations)
	fmt.Printf("final snapshot: merge MSE %.4f over %d live chunks\n", last.MergeMSE, last.Partitions)
	for i, c := range last.Centroids {
		fmt.Printf("  w=%10.1f  %v\n", last.Weights[i], c)
	}
	if reportPath != "" {
		b, err := w.Report().JSON()
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		if err := os.WriteFile(reportPath, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	return nil
}

// runCSV clusters a single CSV file as one "cell" through the engine,
// letting the library be tried on arbitrary numeric data.
func runCSV(path string, k, restarts int, mem string, workers, restartWorkers int, strategy, merge string, seed uint64, sum sumFlags) error {
	budget, err := parseBytes(mem)
	if err != nil {
		return err
	}
	strat, err := streamkm.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	mode, err := streamkm.ParseMergeMode(merge)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	set, err := dataset.ReadCSV(f, dataset.CSVOptions{})
	closeErr := f.Close()
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	cells := []engine.Cell{{Key: grid.CellKey{}, Points: set}}
	q := engine.Query{K: k, Restarts: restarts, Strategy: strat, MergeMode: mode, Seed: seed, Workers: restartWorkers}
	sum.apply(&q)
	results, plan, stats, err := engine.Run(context.Background(), cells, q, engine.Resources{
		MemoryBytes: budget, Workers: workers,
	})
	if err != nil {
		return err
	}
	fmt.Print(plan.Explain())
	r := results[0]
	fmt.Printf("\n%d points, dim %d -> %d centroids across %d chunks\n",
		set.Len(), set.Dim(), len(r.Result.Centroids), r.Partitions)
	fmt.Printf("merge MSE %.4f, point MSE %.4f, elapsed %v\n", r.Result.MSE, r.PointMSE, stats.Elapsed)
	for i, c := range r.Result.Centroids {
		fmt.Printf("  w=%10.1f  %v\n", r.Result.Weights[i], c)
	}
	return nil
}

func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "GB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	return n * mult, nil
}

// runConfig carries the bucket-directory invocation's flags.
type runConfig struct {
	data, mem, strategy, merge string
	sum                        sumFlags
	k, restarts, workers       int
	restartWorkers             int
	seed                       uint64
	explain, adaptive, trace   bool
	maxRetries                 int
	salvage                    bool
	remote                     string
	deadline                   time.Duration
	progressTimeout            time.Duration
	memBudget                  string
	allowDegraded              bool
	report                     string
	progress                   bool
}

// startProgress prints a one-line status to w every interval, read live
// from the engine's metrics registry, until the returned stop function
// is called. The ETA extrapolates from the observed chunk rate.
func startProgress(reg *obs.Registry, w io.Writer, interval time.Duration) func() {
	start := time.Now()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Fprintln(w, progressLine(reg, time.Since(start)))
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// progressLine renders one ticker line from the live registry.
func progressLine(reg *obs.Registry, elapsed time.Duration) string {
	chunksDone := reg.Counter(obs.EngineChunksDone, "").Value()
	chunksTotal := reg.Counter(obs.EngineChunksTotal, "").Value()
	cellsMerged := reg.Counter(obs.EngineCellsMerged, "").Value()
	cellsTotal := reg.Counter(obs.EngineCellsTotal, "").Value()
	line := fmt.Sprintf("pmkm: %7s  chunks %d/%d  cells %d/%d",
		elapsed.Round(100*time.Millisecond), chunksDone, chunksTotal, cellsMerged, cellsTotal)
	if chunksDone > 0 && chunksDone < chunksTotal {
		eta := time.Duration(float64(elapsed) / float64(chunksDone) * float64(chunksTotal-chunksDone))
		line += fmt.Sprintf("  eta %s", eta.Round(100*time.Millisecond))
	}
	if degraded := reg.Counter(obs.EngineDegradedChunks, "").Value(); degraded > 0 {
		line += fmt.Sprintf("  degraded %d", degraded)
	}
	return line
}

// writeReport renders the execution's unified run report to path.
func writeReport(path string, stats *engine.ExecStats) error {
	b, err := stats.Report().JSON()
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// salvageIndex indexes a bucket directory file by file, warning about
// and skipping files whose headers are unreadable instead of failing
// the whole directory the way IndexDir does.
func salvageIndex(dir string) ([]grid.IndexEntry, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []grid.IndexEntry
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".skmb") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		single, err := grid.IndexFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmkm: %s: unreadable header, skipping cell: %v\n", path, err)
			continue
		}
		out = append(out, single)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Lat != out[j].Key.Lat {
			return out[i].Key.Lat < out[j].Key.Lat
		}
		return out[i].Key.Lon < out[j].Key.Lon
	})
	return out, nil
}

// loadCells reads every indexed bucket. With salvage enabled, damaged
// files contribute their valid prefix (warning on stderr) and files with
// nothing recoverable are skipped instead of failing the run.
func loadCells(index []grid.IndexEntry, salvage bool) ([]engine.Cell, error) {
	var cells []engine.Cell
	for _, entry := range index {
		var (
			key grid.CellKey
			set *dataset.Set
			err error
		)
		if salvage {
			key, set, err = grid.SalvageBucketFile(entry.Path)
			if err != nil {
				if set == nil || set.Len() == 0 {
					fmt.Fprintf(os.Stderr, "pmkm: %s: nothing salvageable, skipping cell: %v\n", entry.Path, err)
					continue
				}
				fmt.Fprintf(os.Stderr, "pmkm: %s: salvaged %d of %d points: %v\n",
					entry.Path, set.Len(), entry.Count, err)
			}
		} else {
			key, set, err = grid.ReadBucketFile(entry.Path)
			if err != nil {
				return nil, err
			}
		}
		cells = append(cells, engine.Cell{Key: key, Points: set})
	}
	return cells, nil
}

// run executes the bucket-directory invocation. A nil error with a
// non-nil DegradedResult means the run answered partially under
// -allow-degraded; main turns that into the distinct exit status.
func run(cfg runConfig) (*engine.DegradedResult, error) {
	budget, err := parseBytes(cfg.mem)
	if err != nil {
		return nil, err
	}
	var runtimeBudget int64
	if cfg.memBudget != "" {
		runtimeBudget, err = parseBytes(cfg.memBudget)
		if err != nil {
			return nil, err
		}
	}
	strat, err := streamkm.ParseStrategy(cfg.strategy)
	if err != nil {
		return nil, err
	}
	mode, err := streamkm.ParseMergeMode(cfg.merge)
	if err != nil {
		return nil, err
	}
	index, err := grid.IndexDir(cfg.data)
	if err != nil {
		// Indexing reads every header up front, so one unreadable file
		// would otherwise veto a salvage run before loadCells gets a
		// chance to skip it. Fall back to indexing file by file.
		if !cfg.salvage {
			return nil, err
		}
		index, err = salvageIndex(cfg.data)
		if err != nil {
			return nil, err
		}
	}
	if len(index) == 0 {
		return nil, fmt.Errorf("no bucket files in %s (run datagen first)", cfg.data)
	}
	cells, err := loadCells(index, cfg.salvage)
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("no usable bucket files in %s", cfg.data)
	}
	q := engine.Query{
		K:         cfg.k,
		Restarts:  cfg.restarts,
		Strategy:  strat,
		MergeMode: mode,
		Seed:      cfg.seed,
		Workers:   cfg.restartWorkers,
	}
	cfg.sum.apply(&q)
	res := engine.Resources{MemoryBytes: budget, Workers: cfg.workers}
	sizes := make([]int, len(cells))
	for i, c := range cells {
		sizes[i] = c.Points.Len()
	}
	if cfg.explain {
		plan, err := engine.Optimize(q, sizes, cells[0].Points.Dim(), res)
		if err != nil {
			return nil, err
		}
		logical := engine.LogicalFor(q, len(cells), false)
		fmt.Println("LogicalPlan:")
		fmt.Print(logical.String())
		fmt.Println("Annotated:")
		fmt.Print(logical.AnnotatePhysical(plan).String())
		fmt.Print(plan.Explain())
		return nil, nil
	}
	plan, err := engine.Optimize(q, sizes, cells[0].Points.Dim(), res)
	if err != nil {
		return nil, err
	}
	// Features compose on the one executor: -adaptive, -max-retries and
	// the governor flags are independent options, not mutually exclusive
	// modes.
	var opts []engine.ExecOption
	if cfg.adaptive {
		plan.PartialClones = 1 // start minimal; the re-optimizer scales up
		opts = append(opts, engine.WithReopt(engine.ReoptPolicy{MaxClones: cfg.workers}))
	}
	if cfg.maxRetries > 0 {
		opts = append(opts,
			engine.WithRetry(stream.RetryPolicy{MaxRetries: cfg.maxRetries}),
			engine.WithRestarts(1))
	}
	opts = append(opts, engine.WithBudget(govern.Budget{
		Deadline:        cfg.deadline,
		ProgressTimeout: cfg.progressTimeout,
		MemoryBytes:     runtimeBudget,
	}))
	if cfg.allowDegraded {
		opts = append(opts, engine.WithDegradedResults())
	}
	// pmkm owns the metrics registry so the progress ticker can read
	// counters while the engine is still writing them.
	reg := obs.NewRegistry()
	opts = append(opts, engine.WithObserver(reg))
	var workerAddrs []string
	if cfg.remote != "" {
		for _, a := range strings.Split(cfg.remote, ",") {
			if a = strings.TrimSpace(a); a != "" {
				workerAddrs = append(workerAddrs, a)
			}
		}
		// A chunk should survive the loss of every worker but one, so the
		// re-lease budget defaults to the worker count when -max-retries
		// doesn't raise it.
		leaseRetries := cfg.maxRetries
		if leaseRetries < len(workerAddrs) {
			leaseRetries = len(workerAddrs)
		}
		pool, err := dist.NewPool(context.Background(), dist.PoolConfig{
			Addrs:           workerAddrs,
			Retry:           stream.RetryPolicy{MaxRetries: leaseRetries},
			ProgressTimeout: cfg.progressTimeout,
			Seed:            cfg.seed,
			Obs:             reg,
		})
		if err != nil {
			return nil, err
		}
		defer pool.Close()
		fmt.Fprintf(os.Stderr, "pmkm: distributing chunks across %d remote worker(s)\n", pool.Live())
		opts = append(opts, engine.WithRemoteWorkers(pool))
	}
	var stopProgress func()
	if cfg.progress {
		stopProgress = startProgress(reg, os.Stderr, time.Second)
	}
	results, stats, err := engine.NewExec(q, plan, opts...).Execute(context.Background(), cells)
	if stopProgress != nil {
		stopProgress()
	}
	if err != nil {
		return nil, err
	}
	if cfg.report != "" {
		if err := writeReport(cfg.report, stats); err != nil {
			return nil, err
		}
	}
	fmt.Print(plan.Explain())
	if adm := stats.Admission; adm != nil && adm.Constrained() {
		fmt.Println("  governor:", adm)
	}
	for _, e := range stats.ReoptEvents {
		fmt.Println("  reopt:", e)
	}
	// A degraded run may return fewer results than cells, so look points
	// up by key instead of pairing results with cells positionally.
	pointsByKey := make(map[grid.CellKey]int, len(cells))
	for _, c := range cells {
		pointsByKey[c.Key] = c.Points.Len()
	}
	fmt.Printf("\n%-10s %8s %6s %6s %14s %14s %14s\n",
		"cell", "points", "chunks", "lost", "merge MSE", "point MSE", "partial (ms)")
	for _, r := range results {
		fmt.Printf("%-10s %8d %6d %6d %14.2f %14.2f %14d\n",
			r.Key, pointsByKey[r.Key], r.Partitions, r.LostChunks, r.Result.MSE, r.PointMSE,
			r.PartialTime.Milliseconds())
	}
	fmt.Printf("\nprocessed %d cells / %d chunks in %v\n", stats.Cells, stats.Chunks, stats.Elapsed)
	if stats.Restarts > 0 {
		fmt.Printf("recovered from %d plan crash(es) via the execution journal\n", stats.Restarts)
	}
	if stats.Stalls > 0 {
		fmt.Printf("stall watchdog cancelled %d wedged attempt(s)\n", stats.Stalls)
	}
	for _, op := range stats.Registry.All() {
		fmt.Println(" ", op)
	}
	if len(workerAddrs) > 0 {
		fmt.Printf("\n%-22s %8s %8s %8s %6s %12s %12s\n",
			"worker", "chunks", "retries", "dups", "evict", "sent (B)", "recv (B)")
		for _, addr := range workerAddrs {
			fmt.Printf("%-22s %8d %8d %8d %6d %12d %12d\n", addr,
				reg.Counter(obs.DistChunksDone, addr).Value(),
				reg.Counter(obs.DistRetries, addr).Value(),
				reg.Counter(obs.DistDupResults, addr).Value(),
				reg.Counter(obs.DistEvictions, addr).Value(),
				reg.Counter(obs.DistBytesSent, addr).Value(),
				reg.Counter(obs.DistBytesRecv, addr).Value())
		}
	}
	if cfg.trace {
		fmt.Println()
		fmt.Print(stats.Trace.Timeline(72))
	}
	return stats.Degraded, nil
}
