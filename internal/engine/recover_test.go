package engine

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"streamkm/internal/fault"
	"streamkm/internal/grid"
	"streamkm/internal/obs"
	"streamkm/internal/stream"
)

func recoverCells(t *testing.T) ([]Cell, Query, PhysicalPlan) {
	t.Helper()
	cells := []Cell{
		{Key: grid.CellKey{Lat: 1, Lon: 1}, Points: engineCell(t, 600, 21)},
		{Key: grid.CellKey{Lat: 2, Lon: 2}, Points: engineCell(t, 450, 22)},
	}
	q := Query{K: 5, Restarts: 2, Seed: 77}
	plan := PhysicalPlan{ChunkPoints: 150, PartialClones: 3, QueueCapacity: 4}
	return cells, q, plan
}

func assertSameResults(t *testing.T, got, want []CellResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i].Result, got[i].Result
		if len(g.Centroids) != len(w.Centroids) {
			t.Fatalf("cell %d: centroid counts differ", i)
		}
		for c := range w.Centroids {
			if g.Weights[c] != w.Weights[c] {
				t.Fatalf("cell %d centroid %d: weight %v != %v", i, c, g.Weights[c], w.Weights[c])
			}
			for d := range w.Centroids[c] {
				if g.Centroids[c][d] != w.Centroids[c][d] {
					t.Fatalf("cell %d centroid %d dim %d: %v != %v",
						i, c, d, g.Centroids[c][d], w.Centroids[c][d])
				}
			}
		}
		if g.MSE != w.MSE {
			t.Fatalf("cell %d: merge MSE %v != %v", i, g.MSE, w.MSE)
		}
		if got[i].PointMSE != want[i].PointMSE {
			t.Fatalf("cell %d: point MSE differs", i)
		}
	}
}

func TestSupervisedMatchesPlainExecute(t *testing.T) {
	cells, q, plan := recoverCells(t)
	want, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := NewExec(q, plan, WithRetry(stream.RetryPolicy{})).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	if stats.Restarts != 0 {
		t.Fatalf("clean run restarted %d times", stats.Restarts)
	}
}

func TestSupervisedRetriesInjectedFaults(t *testing.T) {
	cells, q, plan := recoverCells(t)
	want, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Seed chosen so the rate draws actually fire within the plan's 7
	// chunks (some seeds inject nothing at these rates).
	inj := fault.New(fault.Config{Seed: 6, ErrorRate: 0.3, PanicRate: 0.1})
	got, stats, err := NewExec(q, plan,
		WithRetry(stream.RetryPolicy{MaxRetries: 25, BaseBackoff: time.Microsecond, Jitter: 0.5}),
		WithFaultInjection(inj)).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	if inj.Faults() == 0 {
		t.Fatal("injector never fired; test exercised nothing")
	}
	if stageCounter(stats, obs.StreamRetries, "partial-kmeans") == 0 {
		t.Fatal("no retries recorded despite injected faults")
	}
}

func TestSupervisedRestartsAfterCrash(t *testing.T) {
	cells, q, plan := recoverCells(t)
	want, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	// No retry budget: the 3rd partial invocation kills the whole plan;
	// the executor must restart from the journal and still match.
	var restartErrs []error
	got, stats, err := NewExec(q, plan, WithRestarts(2), WithFaultInjection(fault.ErrorNth(3)),
		WithOnRestart(func(_ int, err error) { restartErrs = append(restartErrs, err) })).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	if stats.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", stats.Restarts)
	}
	if len(restartErrs) != 1 || !errors.Is(restartErrs[0], fault.ErrInjected) {
		t.Fatalf("OnRestart saw %v", restartErrs)
	}
}

func TestSupervisedRestartsAfterPanic(t *testing.T) {
	cells, q, plan := recoverCells(t)
	want, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := NewExec(q, plan, WithRestarts(1),
		WithFaultInjection(fault.PanicNth(2))).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	if stats.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", stats.Restarts)
	}
}

func TestSupervisedGivesUpAfterMaxRestarts(t *testing.T) {
	cells, q, plan := recoverCells(t)
	inj := fault.New(fault.Config{ErrorRate: 1}) // every chunk fails, forever
	_, _, err := NewExec(q, plan, WithRestarts(2), WithFaultInjection(inj)).Execute(context.Background(), cells)
	if err == nil {
		t.Fatal("permanently failing plan should error")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
}

// TestJournalCheckpointRoundTripMidStream is the query-migration claim
// exercised for real: kill the plan mid-run while a cell still has
// in-flight (incomplete) chunks, serialize the journal, decode it into a
// fresh supervised execution, and demand bit-identical final centroids.
func TestJournalCheckpointRoundTripMidStream(t *testing.T) {
	cells, q, plan := recoverCells(t)
	want, _, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}

	// First process: crash mid-run with no restart budget. Which chunk
	// outputs reach the journal before cancellation wins is scheduling-
	// dependent, so probe kill points until the crash catches a cell
	// mid-flight — some chunks journaled, some not. (A quiescent journal
	// would degenerate to the checkpoint-at-rest case older tests cover.)
	var journal *Journal
	midFlight := false
	for attempt := 0; attempt < 40 && !midFlight; attempt++ {
		journal = NewJournal()
		_, _, err = NewExec(q, plan, WithFaultInjection(fault.ErrorNth(int64(3+attempt%5))),
			WithJournal(journal)).Execute(context.Background(), cells)
		if err == nil {
			t.Fatal("expected the crashing attempt to die")
		}
		for ci := range cells {
			if got, total := journal.CellProgress(ci); got > 0 && got < total {
				midFlight = true
			}
		}
	}
	if !midFlight {
		t.Skip("could not catch a cell mid-flight after 40 crashes; scheduler too eager")
	}
	done := journal.Chunks()

	// Migrate: serialize, decode, resume in a "new process".
	var buf bytes.Buffer
	if err := journal.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Chunks() != done {
		t.Fatalf("round trip lost entries: %d != %d", restored.Chunks(), done)
	}
	got, stats, err := NewExec(q, plan, WithJournal(restored)).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, got, want)
	// The resumed run must not have re-run journaled chunks.
	if got := stageCounter(stats, obs.StreamItemsIn, "partial-kmeans"); got != int64(stats.Chunks-done) {
		t.Fatalf("resumed run processed %d chunks, want %d", got, stats.Chunks-done)
	}
}

func TestDecodeJournalRejectsCorruption(t *testing.T) {
	cells, q, plan := recoverCells(t)
	journal := NewJournal()
	_, _, err := NewExec(q, plan, WithJournal(journal)).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := journal.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"bad version": func() []byte { b := append([]byte{}, good...); b[4] = 9; return b }(),
		"truncated":   good[:len(good)-7],
		"flipped":     func() []byte { b := append([]byte{}, good...); b[len(b)-3] ^= 0x10; return b }(),
	}
	for name, data := range cases {
		if _, err := DecodeJournal(bytes.NewReader(data)); !errors.Is(err, ErrBadJournal) {
			t.Errorf("%s: err = %v, want ErrBadJournal", name, err)
		}
	}
}

func TestSupervisedCancellationIsNotRetried(t *testing.T) {
	cells, q, plan := recoverCells(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := NewExec(q, plan, WithRestarts(100)).Execute(ctx, cells)
	if err == nil {
		t.Fatal("cancelled context should fail")
	}
}

// TestJournalResumeUnderAnotherRunRefused crashes a journaled run and
// resumes its decoded checkpoint under a different seed or chunk size.
// Either change re-slices the cells or re-derives their RNGs, so the
// journaled summaries no longer belong to the run's chunks: the resume
// must be refused, not merged into a wrong answer.
func TestJournalResumeUnderAnotherRunRefused(t *testing.T) {
	cells, q, plan := recoverCells(t)
	journal := NewJournal()
	if _, _, err := NewExec(q, plan, WithJournal(journal),
		WithFaultInjection(fault.ErrorNth(4))).Execute(context.Background(), cells); err == nil {
		t.Fatal("expected the crashing run to die")
	}
	var buf bytes.Buffer
	if err := journal.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Query, *PhysicalPlan){
		"seed":            func(q *Query, _ *PhysicalPlan) { q.Seed++ },
		"chunk size":      func(_ *Query, p *PhysicalPlan) { p.ChunkPoints -= 7 },
		"seed and chunks": func(q *Query, p *PhysicalPlan) { q.Seed++; p.ChunkPoints -= 7 },
	}
	for name, mutate := range cases {
		restored, err := DecodeJournal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		q2, plan2 := q, plan
		mutate(&q2, &plan2)
		if _, _, err := NewExec(q2, plan2, WithJournal(restored)).
			Execute(context.Background(), cells); !errors.Is(err, ErrJournalMismatch) {
			t.Fatalf("%s: resume err = %v, want ErrJournalMismatch", name, err)
		}
	}
}
