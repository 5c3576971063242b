package engine

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"streamkm/internal/fault"
	"streamkm/internal/stream"
)

// This file is the bit-identical equivalence suite for the composable
// executor: for fixed seeds, every feature combination — including
// ones the legacy executors could not express, like supervised +
// adaptive + journaled — must reproduce the exact centroids, weights,
// and MSE of the plain Execute path.

// fastReopt returns a re-optimizer policy aggressive enough to fire on
// test-sized plans.
func fastReopt(maxClones int) ReoptPolicy {
	return ReoptPolicy{
		SampleInterval:   time.Millisecond,
		BacklogFraction:  0.25,
		SustainedSamples: 1,
		MaxClones:        maxClones,
	}
}

func TestComposedMatchesLegacyExecutors(t *testing.T) {
	cells, q, plan := recoverCells(t)
	want, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]ExecOption{
		"no options":          nil,
		"retry only":          {WithRetry(stream.RetryPolicy{MaxRetries: 2})},
		"restarts only":       {WithRestarts(2)},
		"journal only":        {WithJournal(NewJournal())},
		"adaptive only":       {WithReopt(fastReopt(4))},
		"supervised adaptive": {WithRetry(stream.RetryPolicy{MaxRetries: 2}), WithReopt(fastReopt(4))},
		"everything": {
			WithRetry(stream.RetryPolicy{MaxRetries: 2}),
			WithRestarts(2),
			WithJournal(NewJournal()),
			WithReopt(fastReopt(4)),
			WithTracer(nil), // nil tracer option must fall back to internal tracer
		},
	}
	for name, opts := range cases {
		got, stats, err := NewExec(q, plan, opts...).Execute(context.Background(), cells)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameResults(t, got, want)
		if stats.Restarts != 0 {
			t.Fatalf("%s: clean run restarted %d times", name, stats.Restarts)
		}
	}
}

// TestComposedSupervisedAdaptiveJournaledSurvivesFaults exercises the
// combination the legacy executors could not express at all: one run
// that retries failing chunks, restarts from its journal after
// crashes, AND scales up under backlog — and still produces
// bit-identical results under injected errors and panics. check.sh
// runs this under -race.
func TestComposedSupervisedAdaptiveJournaledSurvivesFaults(t *testing.T) {
	cells, q, plan := recoverCells(t)
	want, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Config{Seed: 6, ErrorRate: 0.3, PanicRate: 0.1})
	journal := NewJournal()
	var restarts []error
	got, stats, err := NewExec(q, plan,
		WithRetry(stream.RetryPolicy{MaxRetries: 25, BaseBackoff: time.Microsecond, Jitter: 0.5}),
		WithRestarts(3),
		WithJournal(journal),
		WithFaultInjection(inj),
		WithOnRestart(func(_ int, err error) { restarts = append(restarts, err) }),
		WithReopt(fastReopt(4)),
	).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	if inj.Faults() == 0 {
		t.Fatal("injector never fired; test exercised nothing")
	}
	if op := stats.Registry.Lookup("partial-kmeans"); op == nil || op.Retries() == 0 {
		t.Fatal("no retries recorded despite injected faults")
	}
	if journal.Chunks() != stats.Chunks {
		t.Fatalf("journal holds %d chunks, want %d", journal.Chunks(), stats.Chunks)
	}
}

// TestComposedCrashDecodeResume is the migration path through the
// composed executor: crash a journaled run, serialize the journal,
// decode it in a "new process", and resume with a different feature
// set (supervised + adaptive) — still bit-identical.
func TestComposedCrashDecodeResume(t *testing.T) {
	cells, q, plan := recoverCells(t)
	want, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	journal := NewJournal()
	_, _, err = NewExec(q, plan,
		WithJournal(journal),
		WithFaultInjection(fault.ErrorNth(4)),
	).Execute(context.Background(), cells)
	if err == nil {
		t.Fatal("expected the crashing run to die (no restart budget)")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("crash error = %v", err)
	}
	var buf bytes.Buffer
	if err := journal.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := NewExec(q, plan,
		WithJournal(restored),
		WithRetry(stream.RetryPolicy{MaxRetries: 1}),
		WithReopt(fastReopt(4)),
	).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	if done := journal.Chunks(); done > 0 {
		if op := stats.Registry.Lookup("partial-kmeans"); op != nil && op.Processed() > int64(stats.Chunks-done)+int64(op.Retries()) {
			t.Fatalf("resumed run re-ran journaled chunks: processed %d of %d remaining",
				op.Processed(), stats.Chunks-done)
		}
	}
}

// TestRegistryAggregatesAcrossRestarts is the regression test for the
// stats bug the unified core fixes: the legacy supervised executor
// rebuilt the registry on every restart, so only the final attempt's
// counters survived. Aggregated counters must show the crashed
// attempt's work too: with one crash, at least one chunk is consumed
// twice, so processed must exceed the plan's chunk count.
func TestRegistryAggregatesAcrossRestarts(t *testing.T) {
	cells, q, plan := recoverCells(t)
	_, stats, err := NewExec(q, plan,
		WithRestarts(2),
		WithFaultInjection(fault.ErrorNth(3)),
	).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", stats.Restarts)
	}
	op := stats.Registry.Lookup("partial-kmeans")
	if op == nil {
		t.Fatal("partial-kmeans missing from registry")
	}
	if op.Processed() <= int64(stats.Chunks) {
		t.Fatalf("processed = %d across restarts, want > %d (last-attempt-only registry?)",
			op.Processed(), stats.Chunks)
	}
	// The scan operator restarted too; its aggregated emissions must
	// likewise exceed a single clean pass.
	if scan := stats.Registry.Lookup("scan"); scan == nil || scan.Emitted() <= int64(stats.Chunks) {
		t.Fatalf("scan emissions not aggregated across restarts")
	}
	// Exactly one registry entry per operator, not one per attempt.
	names := map[string]int{}
	for _, s := range stats.Registry.All() {
		names[s.Name()]++
	}
	for name, n := range names {
		if n != 1 {
			t.Fatalf("operator %q registered %d times", name, n)
		}
	}
}

// TestCompressionOptionComposes pins Query.Compress on and off, on a
// supervised pipeline: compression attaches the plain run's histograms
// and changes no answer.
func TestCompressionOptionComposes(t *testing.T) {
	cells, q, plan := recoverCells(t)
	qc := q
	qc.Compress = true
	want, _, err := Execute(context.Background(), cells, qc, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := NewExec(qc, plan,
		WithRetry(stream.RetryPolicy{MaxRetries: 1}),
	).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	for i := range got {
		if got[i].Histogram == nil {
			t.Fatalf("cell %d: Compress attached no histogram", i)
		}
		if got[i].Histogram.Total() != want[i].Histogram.Total() {
			t.Fatalf("cell %d: histogram totals differ", i)
		}
	}
	off, _, err := NewExec(q, plan, WithRetry(stream.RetryPolicy{MaxRetries: 1})).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, off, want)
	for i := range off {
		if off[i].Histogram != nil {
			t.Fatalf("cell %d: a run without Compress attached a histogram", i)
		}
	}
}

// TestOnReoptEventMatchesStatsEvents pins the observer's contract: the
// events WithOnReoptEvent sees live and ExecStats.ReoptEvents are the
// same record.
func TestOnReoptEventMatchesStatsEvents(t *testing.T) {
	cells, q, plan := recoverCells(t)
	plan.PartialClones = 1
	var events []ReoptEvent
	_, stats, err := NewExec(q, plan, WithReopt(fastReopt(3)),
		WithOnReoptEvent(func(ev ReoptEvent) { events = append(events, ev) })).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(stats.ReoptEvents) {
		t.Fatalf("observer saw %d events, stats hold %d", len(events), len(stats.ReoptEvents))
	}
	for i := range events {
		if events[i] != stats.ReoptEvents[i] {
			t.Fatalf("event %d differs between observer and stats", i)
		}
	}
}
