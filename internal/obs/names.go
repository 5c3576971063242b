package obs

// Metric family names. Every producer and consumer (engine wiring,
// pmkm's progress ticker, the report tests) refers to these constants,
// so the JSON report's vocabulary is defined in exactly one place.
//
// Stage labels: stream_* and stage_* families are labeled with the
// operator name ("scan", "partial-kmeans", "merge-kmeans" — the same
// names the span timeline uses); kmeans_* families are labeled with
// the phase that ran Lloyd ("partial-kmeans", "merge-kmeans");
// queue_* families are labeled with the queue name ("chunks",
// "partials"); engine_* and govern_* families are run-global (no
// label).
const (
	// Stream-stage families, recorded by stream sources and stages.
	StreamItemsIn     = "stream_items_in"     // items consumed by the stage
	StreamItemsOut    = "stream_items_out"    // items emitted downstream
	StreamRetries     = "stream_retries"      // supervised re-attempts
	StreamQuarantined = "stream_quarantined"  // poison items diverted to the DLQ
	StreamDropped     = "stream_dropped"      // poison items lost to DLQ overflow
	StreamPanics      = "stream_panics"       // operator panics recovered by supervision
	StreamClones      = "stream_clones"       // gauge: peak replica count
	StreamBusySeconds = "stream_busy_seconds" // float gauge: cumulative in-operator time

	// Queue families, absorbed from stream.Queue counters.
	QueueHighWater = "queue_highwater" // gauge: deepest observed backlog
	QueueEnqueued  = "queue_enqueued"
	QueueDequeued  = "queue_dequeued"

	// Engine families (run-global), updated live during execution.
	EngineChunksTotal    = "engine_chunks_total"    // planned partitions
	EngineChunksDone     = "engine_chunks_done"     // partitions journaled (completed)
	EngineChunkAttempts  = "engine_chunk_attempts"  // partial invocations incl. retries
	EngineCellsTotal     = "engine_cells_total"     // planned cells
	EngineCellsMerged    = "engine_cells_merged"    // cells finalized by the merge stage
	EnginePoints         = "engine_points"          // input points entering partial steps
	EngineBytes          = "engine_bytes"           // those points' in-memory bytes
	EngineRestarts       = "engine_restarts"        // plan-level recoveries
	EngineDupChunks      = "engine_dup_chunks"      // duplicate chunk deliveries absorbed by the journal
	EngineDegradedChunks = "engine_degraded_chunks" // partitions missing from the answer
	EngineDegradedPoints = "engine_degraded_points" // points in those partitions

	// Governor families (run-global).
	GovernAdmissionRefits = "govern_admission_refits" // memory admissions that shrank the plan
	GovernWatchdogCancels = "govern_watchdog_cancels" // attempts cancelled by the stall watchdog

	// Per-stage distributions (updated once per chunk, never per point).
	StageSeconds = "stage_seconds" // histogram: per-item stage latency
	ChunkPoints  = "chunk_points"  // histogram: partition sizes

	// K-means families, labeled by the phase that ran Lloyd. With a
	// non-k-means summarizer the partial-stage labels carry that
	// operator's name instead ("partial-ecvq", "partial-coreset") and
	// iteration/restart counters read 0 for operators that run no Lloyd.
	KMeansIterations   = "kmeans_iterations"     // Lloyd iterations summed over runs
	KMeansRestarts     = "kmeans_restarts"       // seed-set restarts executed
	KMeansConverged    = "kmeans_converged"      // runs meeting the ΔMSE criterion
	KMeansLastDeltaMSE = "kmeans_last_delta_mse" // float gauge: winning run's final ΔMSE

	// Summarizer families, labeled by the partial-stage operator.
	SummaryPoints = "summary_points" // weighted points emitted by chunk summaries

	// Snapshot families for the windowed continuous-query path, all
	// labeled "snapshot" (one query surface per clusterer). Counters
	// mirror core.SnapshotStats; the histogram is observed once per
	// Snapshot call by the facade.
	SnapshotQueries    = "snapshot_queries"     // Snapshot calls
	SnapshotCacheHits  = "snapshot_cache_hits"  // answered without k-means work
	SnapshotWarmStarts = "snapshot_warm_starts" // warm-started mini-batch refines
	SnapshotResyncs    = "snapshot_resyncs"     // periodic full-merge resyncs
	SnapshotRefineIter = "snapshot_refine_iterations"
	SnapshotSeconds    = "snapshot_seconds" // histogram: per-query latency

	// Serving-layer families, exported by the streamkmd daemon's
	// /metrics endpoint. Counters and gauges are daemon-global (no
	// label) except serve_rejects, which is labeled by the refusal
	// reason ("memory", "queue-full", "draining", "session-limit").
	ServeSessions            = "serve_sessions"             // gauge: live sessions
	ServeSessionsCreated     = "serve_sessions_created"     // sessions admitted since boot
	ServeSessionsRecovered   = "serve_sessions_recovered"   // sessions rebuilt from disk at boot
	ServeSessionsEvicted     = "serve_sessions_evicted"     // sessions deleted (client or deadline)
	ServeSessionsQuarantined = "serve_sessions_quarantined" // sessions isolated by the watchdog
	ServeRejects             = "serve_rejects"              // 503 refusals, labeled by reason
	ServeIngestBatches       = "serve_ingest_batches"       // ingest batches applied
	ServeIngestPoints        = "serve_ingest_points"        // points applied across sessions
	ServeQueries             = "serve_queries"              // snapshot/finish queries served
	ServeWALFsyncs           = "serve_wal_fsyncs"           // write-ahead log fsyncs
	ServeCheckpoints         = "serve_checkpoints"          // checkpoint compactions completed
	ServeCheckpointErrors    = "serve_checkpoint_errors"    // compactions that failed (session kept running on its WAL)
	ServeMemBytes            = "serve_mem_bytes"            // gauge: admitted working-set estimate
	ServeIngestSeconds       = "serve_ingest_seconds"       // histogram: per-batch apply latency
	ServeQuerySeconds        = "serve_query_seconds"        // histogram: per-query latency

	// Distributed-runtime families, labeled by the worker address
	// (dist_workers_live is run-global).
	DistChunksDone  = "dist_chunks_done"  // chunks a worker computed (completed leases)
	DistRetries     = "dist_retries"      // transport retries against a worker
	DistEvictions   = "dist_evictions"    // permanent evictions of a worker
	DistDupResults  = "dist_dup_results"  // duplicate/stale centroid returns deduplicated
	DistBytesSent   = "dist_bytes_sent"   // frame bytes shipped to a worker
	DistBytesRecv   = "dist_bytes_recv"   // frame bytes received from a worker
	DistWorkersLive = "dist_workers_live" // gauge: workers currently connected
)
