// Command streamkmd serves streaming k-means as a daemon: many
// concurrent clustering sessions behind an HTTP API, each journaled
// to a write-ahead log and compacted into SKMC checkpoints so a crash
// (SIGKILL included) resumes every session bit-identically from its
// last durable point. SIGTERM drains gracefully: admissions stop,
// queued ingest applies, every session flushes a final checkpoint,
// and the process exits 0.
//
// Usage:
//
//	streamkmd -listen :8080 -state ./streamkmd-state \
//	    -mem-budget 268435456 -fsync-every 64 -checkpoint-every 4096
//
// See internal/serve for the API and docs/ARCHITECTURE.md for the
// durability contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streamkm/internal/buildinfo"
	"streamkm/internal/govern"
	"streamkm/internal/serve"
)

func main() {
	// Install the drain handler before anything can announce the daemon:
	// a SIGTERM that arrives the moment a client sees the listen line or
	// /readyz must drain, not kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	var (
		listen          = flag.String("listen", "127.0.0.1:8080", "TCP address to serve the HTTP API on")
		state           = flag.String("state", "streamkmd-state", "state directory (sessions, checkpoints, WALs)")
		maxSessions     = flag.Int("max-sessions", 64, "maximum concurrently hosted sessions")
		memBudget       = flag.Int64("mem-budget", 0, "memory budget in bytes across all sessions (0 = unlimited); admissions beyond it get 503")
		queueDepth      = flag.Int("queue-depth", 16, "per-session ingest queue capacity in batches")
		maxBatch        = flag.Int("max-batch-points", 4096, "maximum points per ingest request")
		fsyncEvery      = flag.Int("fsync-every", 64, "default points between WAL fsyncs (1 = every point durable before its response)")
		checkpointEvery = flag.Int("checkpoint-every", 4096, "default points between checkpoint compactions")
		progressTimeout = flag.Duration("progress-timeout", 0, "quarantine a session whose worker holds work without progress for this long (0 = off)")
		sessionDeadline = flag.Duration("session-deadline", 0, "default session lifetime (0 = unlimited)")
		drainTimeout    = flag.Duration("drain-timeout", 30*time.Second, "maximum time to flush sessions on SIGTERM")
		retryAfter      = flag.Duration("retry-after", time.Second, "Retry-After hint on 503 refusals")
		version         = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("streamkmd"))
		return
	}
	logger := log.New(os.Stderr, "streamkmd: ", log.LstdFlags)

	srv, err := serve.New(serve.Config{
		Root:        *state,
		MaxSessions: *maxSessions,
		Budget: govern.Budget{
			MemoryBytes:     *memBudget,
			ProgressTimeout: *progressTimeout,
			Deadline:        *sessionDeadline,
		},
		QueueDepth:      *queueDepth,
		MaxBatchPoints:  *maxBatch,
		FsyncEvery:      *fsyncEvery,
		CheckpointEvery: *checkpointEvery,
		RetryAfter:      *retryAfter,
		Logf:            logger.Printf,
	})
	if err != nil {
		logger.Fatalf("startup: %v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	// The chaos harness parses this line to find the bound port.
	fmt.Printf("streamkmd listening on %s (state %s, %s)\n", ln.Addr(), *state, buildinfo.String("streamkmd"))

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case sig := <-sigc:
		logger.Printf("received %v, draining", sig)
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain first (stops admissions, flushes every session), then shut
	// the HTTP server down so in-flight queries finish answering.
	if err := srv.Drain(ctx); err != nil {
		hs.Shutdown(ctx)
		logger.Fatalf("drain: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		logger.Fatalf("shutdown: %v", err)
	}
	logger.Printf("drained cleanly, exiting")
}
