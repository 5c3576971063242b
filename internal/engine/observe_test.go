package engine

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"streamkm/internal/fault"
	"streamkm/internal/obs"
	"streamkm/internal/stream"
)

// Tests for the engine's obs wiring: one supervised faulty run must
// land every absorbed signal — chunk counters, retry counts, per-stage
// histograms, queue totals, trace cross-reference — in a single
// schema-stable report with the exact values the workload implies.

func TestExecReportUnderFaults(t *testing.T) {
	cells, q, plan := governCells(t) // 4 + 3 chunks, clones=1: deterministic counts
	reg := obs.NewRegistry()
	results, stats, err := NewExec(q, plan,
		WithObserver(reg),
		WithFaultInjection(fault.ErrorNth(3)),
		WithRetry(stream.RetryPolicy{MaxRetries: 2, BaseBackoff: -1}),
	).Execute(context.Background(), cells)
	if err != nil {
		t.Fatalf("supervised execution failed: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if stats.Obs != reg {
		t.Fatal("ExecStats.Obs is not the caller's registry")
	}

	rep := stats.Report()
	if rep.Schema != obs.ReportSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, obs.ReportSchema)
	}
	if rep.Cells != 2 || rep.Chunks != 7 {
		t.Fatalf("cells/chunks = %d/%d, want 2/7", rep.Cells, rep.Chunks)
	}
	m := rep.Metrics
	for _, c := range []struct {
		name, stage string
		want        int64
	}{
		{obs.EngineChunksTotal, "", 7},
		{obs.EngineChunksDone, "", 7},
		// The injected fault fires before the partial transform runs, so
		// attempts counts the 7 invocations that reached the operator.
		{obs.EngineChunkAttempts, "", 7},
		{obs.EngineCellsTotal, "", 2},
		{obs.EngineCellsMerged, "", 2},
		{obs.EnginePoints, "", 1050},
		{obs.StreamItemsIn, "partial-kmeans", 7},
		{obs.StreamItemsOut, "partial-kmeans", 7},
		{obs.StreamRetries, "partial-kmeans", 1},
		{obs.StreamPanics, "partial-kmeans", 0},
		// Every successful partial step ran all Restarts=2 seed sets.
		{obs.KMeansRestarts, "partial-kmeans", 14},
		{obs.QueueEnqueued, "chunks", 7},
		{obs.QueueDequeued, "chunks", 7},
	} {
		if got := m.Counter(c.name, c.stage); got != c.want {
			t.Errorf("counter %s{stage=%q} = %d, want %d", c.name, c.stage, got, c.want)
		}
	}
	if m.Counter(obs.KMeansIterations, "partial-kmeans") <= 0 {
		t.Error("no partial Lloyd iterations recorded")
	}
	if m.Counter(obs.EngineBytes, "") <= 0 {
		t.Error("no point bytes recorded")
	}

	if h := m.Histogram(obs.StageSeconds, "partial-kmeans"); h == nil || h.Count != 7 {
		t.Errorf("partial stage_seconds = %+v, want count 7 (once per item, not per attempt)", h)
	}
	if h := m.Histogram(obs.ChunkPoints, "partial-kmeans"); h == nil || h.Count != 7 {
		t.Errorf("chunk_points = %+v, want count 7", h)
	}
	// The merge stage's items are partial outputs (its sink runs once
	// per journaled chunk), so its latency histogram has 7 entries; the
	// 2 cell finalizations show up as merge-kmeans trace spans instead.
	if h := m.Histogram(obs.StageSeconds, "merge-kmeans"); h == nil || h.Count != 7 {
		t.Errorf("merge stage_seconds = %+v, want count 7 (one per consumed partial)", h)
	}

	var highwater bool
	for _, g := range m.Gauges {
		if g.Name == obs.QueueHighWater && g.Stage == "chunks" {
			highwater = true
		}
	}
	if !highwater {
		t.Error("no queue_highwater gauge for the chunks queue")
	}

	// Trace cross-reference: the op names equal the metric stage labels.
	ops := map[string]int{}
	for _, o := range rep.Trace {
		ops[o.Op] = o.Spans
	}
	if ops["partial-kmeans"] != 7 || ops["merge-kmeans"] != 2 {
		t.Errorf("trace spans = %v, want partial-kmeans:7 merge-kmeans:2", ops)
	}

	// Schema stability: rendering the same execution twice is
	// byte-identical.
	a, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := stats.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two reports of one execution differ")
	}
}

// stageCounter reads one stage's stream_* counter from the run's
// registry.
func stageCounter(stats *ExecStats, name, stage string) int64 {
	return stats.Obs.Snapshot().Counter(name, stage)
}

// TestOperatorsLines pins the per-operator summary lines pmkm and
// examples/misrcompress print, for a plain, a supervised and a degraded
// run; busy time is wall-clock and checked only for its shape.
func TestOperatorsLines(t *testing.T) {
	cells, q, plan := governCells(t)
	busy := regexp.MustCompile(`busy=([0-9.]+(ns|µs|ms|s|m)|0s)( |$)`)
	for _, c := range []struct {
		name string
		opts []ExecOption
		want []string
	}{
		{"plain", nil, []string{
			"scan[x1]: in=0 out=7 busy=*",
			"partial-kmeans[x1]: in=7 out=7 busy=*",
			"merge-kmeans[x1]: in=7 out=0 busy=*",
		}},
		{"supervised", []ExecOption{
			WithRetry(stream.RetryPolicy{MaxRetries: 1, BaseBackoff: -1}),
			WithFaultInjection(fault.New(fault.Config{ErrorNth: 3, PanicNth: 6})),
		}, []string{
			"scan[x1]: in=0 out=7 busy=*",
			"partial-kmeans[x1]: in=7 out=7 busy=* retries=2 quarantined=0 dropped=0 panics=1",
			"merge-kmeans[x1]: in=7 out=0 busy=*",
		}},
		{"degraded", []ExecOption{WithFaultInjection(fault.ErrorNth(3)), WithDegradedResults()}, []string{
			"scan[x1]: in=0 out=7 busy=*",
			"partial-kmeans[x1]: in=7 out=6 busy=* retries=0 quarantined=1 dropped=0 panics=0",
			"merge-kmeans[x1]: in=6 out=0 busy=*",
		}},
	} {
		_, stats, err := NewExec(q, plan, c.opts...).Execute(context.Background(), cells)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got []string
		for _, line := range stats.Operators() {
			got = append(got, busy.ReplaceAllString(line, "busy=*$3"))
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: lines\n%s\nwant\n%s", c.name, strings.Join(stats.Operators(), "\n"), strings.Join(c.want, "\n"))
		}
	}
}

// TestExecReportDegraded drops one partition permanently and requires
// the degraded counters and report section to name the loss.
func TestExecReportDegraded(t *testing.T) {
	cells, q, plan := governCells(t)
	reg := obs.NewRegistry()
	_, stats, err := NewExec(q, plan,
		WithObserver(reg),
		WithFaultInjection(fault.ErrorNth(3)), // cell 0 chunk 2, no retry budget
		WithDegradedResults(),
	).Execute(context.Background(), cells)
	if err != nil {
		t.Fatalf("degraded execution errored: %v", err)
	}
	rep := stats.Report()
	if rep.Degraded == nil {
		t.Fatal("report has no degraded section")
	}
	if rep.Degraded.DroppedChunks != 1 || rep.Degraded.PointsLost != 150 {
		t.Fatalf("degraded section %+v, want 1 dropped chunk, 150 points", rep.Degraded)
	}
	if got := rep.Metrics.Counter(obs.EngineDegradedChunks, ""); got != 1 {
		t.Fatalf("engine_degraded_chunks = %d, want 1", got)
	}
	if got := rep.Metrics.Counter(obs.EngineDegradedPoints, ""); got != 150 {
		t.Fatalf("engine_degraded_points = %d, want 150", got)
	}
	if got := rep.Metrics.Counter(obs.StreamQuarantined, "partial-kmeans"); got != 1 {
		t.Fatalf("stream_quarantined = %d, want 1", got)
	}
}

// TestReportKeysWhenNoStageRuns: a run resumed from a journal that
// already holds every chunk merges from the journal and starts no
// pipeline stage. Its report still carries both stages' stage_seconds
// keys (count 0), and no stream_* family, since no stage ran.
func TestReportKeysWhenNoStageRuns(t *testing.T) {
	cells, q, plan := governCells(t)
	journal := NewJournal()
	if _, _, err := NewExec(q, plan, WithJournal(journal)).Execute(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	_, stats, err := NewExec(q, plan, WithJournal(journal)).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	m := stats.Report().Metrics
	for _, stage := range []string{"partial-kmeans", "merge-kmeans"} {
		if h := m.Histogram(obs.StageSeconds, stage); h == nil || h.Count != 0 {
			t.Fatalf("stage_seconds{%s} = %+v, want the key with count 0", stage, h)
		}
	}
	for _, c := range m.Counters {
		if strings.HasPrefix(c.Name, "stream_") {
			t.Fatalf("no stage ran, yet the report has %s{%s}", c.Name, c.Stage)
		}
	}
}

// TestSnapshotDuringExecution snapshots the caller's registry while the
// pipeline is writing it — the pmkm -progress pattern. Under -race this
// is the live-read concurrency test; every snapshot must also be
// internally consistent.
func TestSnapshotDuringExecution(t *testing.T) {
	cells, q, plan := governCells(t)
	plan.PartialClones = 2
	reg := obs.NewRegistry()
	done := make(chan error, 1)
	go func() {
		_, _, err := NewExec(q, plan, WithObserver(reg)).Execute(context.Background(), cells)
		done <- err
	}()
	snaps := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if snaps == 0 {
				t.Fatal("no snapshots taken during execution")
			}
			final := reg.Snapshot()
			if got := final.Counter(obs.EngineChunksDone, ""); got != 7 {
				t.Fatalf("final chunks done = %d, want 7", got)
			}
			return
		default:
		}
		s := reg.Snapshot()
		for _, h := range s.Histograms {
			var inBuckets int64
			for _, b := range h.Buckets {
				inBuckets += b.Count
			}
			if inBuckets+h.Overflow != h.Count {
				t.Fatalf("torn %s snapshot: %d + %d != %d", h.Name, inBuckets, h.Overflow, h.Count)
			}
		}
		snaps++
		time.Sleep(time.Millisecond)
	}
}
