#!/bin/sh
# Full pre-merge check: gofmt, vet, build, and the complete test suite
# under the race detector. Slower than the tier-1 verify in ROADMAP.md
# (go build ./... && go test ./...) but catches data races in the
# pipelined/supervised executor that a plain `go test` can miss.
set -eux
cd "$(dirname "$0")/.."

# Formatting gate: the tree must be gofmt-clean (CI enforces the same
# gate in its tier-1 job).
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
  echo "error: gofmt needed on:" >&2
  echo "$UNFORMATTED" >&2
  exit 1
fi

go vet ./...
go build ./...
go test -race ./...

# Stall-fault soak: wedge the partial stage at several invocation
# indices (fault.StallNth) and require the governor's watchdog to
# cancel, retry, and still produce the bit-identical answer under the
# race detector. The explicit -timeout is the test's own deadline: if
# the watchdog ever fails to fire, this hangs, and the bound turns the
# hang into a failure instead of a stuck CI job.
go test -race -run 'TestGovernorStallSoak' -count=1 -timeout 120s ./internal/engine

# Engine stress: the composed and re-optimizing paths 200 times under
# the race detector. The re-optimizer adds partial-operator clones while
# stages drain, so this is where a stage-close race or a goroutine that
# outlives its plan shows up. The explicit -timeout turns a hang into a
# failure.
go test -race -run 'TestComposed|TestReopt' -count=200 -timeout 300s ./internal/engine

# Fuzz smoke: a few seconds per decoder target so a regression that
# panics on malformed input fails the check without a long campaign.
# Bucket v2 is also the distributed runtime's wire format for chunk
# payloads, so these two targets guard the network boundary too.
go test -run='^$' -fuzz='^FuzzBucketReader$' -fuzztime=5s ./internal/grid
go test -run='^$' -fuzz='^FuzzSalvageBucket$' -fuzztime=5s ./internal/grid
# Checkpoint decoders (SKMC v1 stream + v2 windowed) guard the serving
# daemon's recovery path; the committed corpus pins both versions.
go test -run='^$' -fuzz='^FuzzCheckpoint$' -fuzztime=5s .
# Execution-journal decoder (SKMJ v4): a checkpoint may come from
# another process or machine; the committed corpus pins a v4 journal
# with an operator record and leases.
go test -run='^$' -fuzz='^FuzzDecodeJournal$' -fuzztime=5s ./internal/engine
# The bounded Lloyd sweep must stay bit-identical to full scans on
# arbitrary inputs (ties, NaN/Inf, overflow); the committed corpus pins
# the cases that broke earlier variants of the bound test.
go test -run='^$' -fuzz='^FuzzLloydBounded$' -fuzztime=5s ./internal/kmeans
# Session create bodies are the daemon's HTTP trust boundary: every body
# is refused as a bad request or admitted with an estimate that fits in
# int64; the committed corpus pins a 2^60-point chunk.
go test -run='^$' -fuzz='^FuzzSessionConfig$' -fuzztime=5s ./internal/serve

# Distributed chaos smoke: the loopback coordinator/worker suite under
# injected frame faults must stay bit-identical to the local engine.
# The explicit -timeout bounds a lost-liveness regression (a retry loop
# that never gives up) instead of wedging the check.
go test -race -run 'TestChaos' -count=1 -timeout 300s ./internal/dist

# Serving-layer chaos smoke: crash-image recovery, torn WALs, injected
# disk-full checkpoints, queue overflow, and goroutine-leak sweeps for
# the daemon, all under the race detector. The subprocess SIGKILL test
# (TestDaemon*) runs too: it builds cmd/streamkmd and kills it for real.
go test -race -run 'TestChaos|TestLeak|TestDaemon' -count=1 -timeout 300s ./internal/serve

# Benchmark smoke: one 10-iteration pass over the hot-path kernels so a
# change that panics or deadlocks only under -bench (e.g. the restart
# worker pool) fails the check without costing real benchmark time.
go test -run='^$' -bench=. -benchtime=10x ./internal/kmeans ./internal/vector

# Load-harness smoke: the tiny profile through both drivers (in-process
# engine and a spawned streamkmd), all four scenarios. Seconds, not
# minutes, and ungated — it proves the harness and both drivers work;
# the gated capacity run is CI's `load` job with the ci profile.
go run ./cmd/loadgen -profile smoke -driver both -out /tmp/load-smoke.$$.json
rm -f /tmp/load-smoke.$$.json

# Perfbench correctness smoke: two seconds each of the cells-batch
# workload (stream sessions) and the serve-mix workload (windowed
# sessions plus snapshot reads) against a freshly built streamkmd. The
# harness replays every stream through the library and compares each
# daemon answer bit for bit, so the check fails unless each result
# reports correct and no failed ops.
for workload in cells-batch serve-mix; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 0 \
    > /tmp/perfbench-smoke.$$.json
  python3 -c '
import json, sys
r = json.loads(open(sys.argv[1]).read().splitlines()[-1])
if r.get("correct") is not True or r.get("failed") != 0:
    sys.exit("perfbench smoke failed (%s): %r" % (sys.argv[2], r))
' /tmp/perfbench-smoke.$$.json "$workload"
done
rm -f /tmp/perfbench-smoke.$$.json
