package engine

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"streamkm/internal/core"
	"streamkm/internal/dataset"
	"streamkm/internal/fault"
	"streamkm/internal/grid"
)

// summarizerQueries enumerates one query per built-in operator over the
// recover scenario's cells, with parameters small enough to stay fast.
func summarizerQueries(t *testing.T) ([]Cell, []Query, PhysicalPlan) {
	t.Helper()
	cells, base, plan := recoverCells(t)
	queries := make([]Query, 0, 3)
	for _, name := range core.SummarizerNames() {
		q := base
		q.Summarizer = name
		q.CoresetSize = 40
		q.ECVQMaxK = 10
		queries = append(queries, q)
	}
	return cells, queries, plan
}

// TestSummarizerEquivalenceAcrossExecutionModes is the golden-checksum
// suite: for every operator, the serial plan, the cloned-parallel plan,
// and a journaled crash-recovery run must produce bit-identical
// centroids. This is the contract that lets any summarizer ship to
// remote workers or resume from checkpoints without quality drift.
func TestSummarizerEquivalenceAcrossExecutionModes(t *testing.T) {
	cells, queries, plan := summarizerQueries(t)
	for _, q := range queries {
		q := q
		t.Run(q.partialStage(), func(t *testing.T) {
			serialPlan := plan
			serialPlan.PartialClones = 1
			serialPlan.QueueCapacity = 4
			want, _, err := Execute(context.Background(), cells, q, serialPlan)
			if err != nil {
				t.Fatal(err)
			}

			parallel, _, err := Execute(context.Background(), cells, q, plan)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, parallel, want)

			// Crash mid-run with no restart budget, then resume from the
			// serialized journal in a "new process".
			journal := NewJournal()
			_, _, err = NewExec(q, plan,
				WithJournal(journal),
				WithFaultInjection(fault.ErrorNth(3)),
			).Execute(context.Background(), cells)
			if err == nil {
				t.Fatal("expected the crashing run to die")
			}
			var buf bytes.Buffer
			if err := journal.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := DecodeJournal(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			recovered, _, err := NewExec(q, plan, WithJournal(restored)).
				Execute(context.Background(), cells)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, recovered, want)
		})
	}
}

// TestPlanExplainNamesOperator pins the satellite fix: EXPLAIN output
// must reflect the operator actually planned, not a hardcoded
// partial-kmeans label.
func TestPlanExplainNamesOperator(t *testing.T) {
	sizes := []int{600}
	res := Resources{MemoryBytes: 1 << 20, Workers: 2}
	for _, tc := range []struct {
		summarizer string
		wantStage  string
	}{
		{"", "partial-kmeans"},
		{"kmeans", "partial-kmeans"},
		{"ecvq", "partial-ecvq"},
		{"coreset", "partial-coreset"},
	} {
		q := Query{K: 5, Restarts: 2, Summarizer: tc.summarizer}
		plan, err := Optimize(q, sizes, 4, res)
		if err != nil {
			t.Fatalf("%q: %v", tc.summarizer, err)
		}
		if plan.PartialStage != tc.wantStage {
			t.Fatalf("%q: PartialStage = %q", tc.summarizer, plan.PartialStage)
		}
		if out := plan.Explain(); !strings.Contains(out, "scan -> "+tc.wantStage+" x") {
			t.Fatalf("%q: Explain missing %q:\n%s", tc.summarizer, tc.wantStage, out)
		}
		logical := LogicalFor(q, 1, false)
		if out := logical.String(); !strings.Contains(out, "operator="+tc.wantStage) {
			t.Fatalf("%q: logical plan missing operator prop:\n%s", tc.summarizer, out)
		}
	}
	// A hand-built plan with no stage label renders the default.
	if out := (PhysicalPlan{PartialClones: 2}).Explain(); !strings.Contains(out, "partial-kmeans x2") {
		t.Fatalf("zero-value plan Explain:\n%s", out)
	}
}

func TestJournalOperatorBinding(t *testing.T) {
	kmeansSpec := core.SummarizerSpec{Name: "kmeans", Params: map[string]string{"k": "5", "restarts": "2"}}
	coresetSpec := core.SummarizerSpec{Name: "coreset", Params: map[string]string{"m": "40"}}
	runOf := func(spec core.SummarizerSpec) runIdentity {
		return runIdentity{operator: spec.Encode(), seed: 7, chunkPoints: 100}
	}

	j := NewJournal()
	if err := j.bind(runOf(kmeansSpec)); err != nil {
		t.Fatal(err)
	}
	if err := j.bind(runOf(kmeansSpec)); err != nil {
		t.Fatalf("rebinding the same spec: %v", err)
	}
	if err := j.bind(runOf(coresetSpec)); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("cross-operator rebind: %v", err)
	}

	// The restart fan-out (workers) never changes summary bits, so a
	// checkpoint resumes across machines with different fan-out.
	shaped := core.SummarizerSpec{Name: "kmeans", Params: map[string]string{
		"k": "5", "restarts": "2", "workers": "8",
	}}
	if err := j.bind(runOf(shaped)); err != nil {
		t.Fatalf("shape-only param change refused: %v", err)
	}

	// Older builds recorded Hamerly's iteration as accel=true. Its
	// summaries differ from the kept iteration's, so such a journal
	// must not resume here.
	hamerly := NewJournal()
	if err := hamerly.bind(runOf(core.SummarizerSpec{Name: "kmeans", Params: map[string]string{
		"k": "5", "restarts": "2", "accel": "true",
	}})); err != nil {
		t.Fatal(err)
	}
	if err := hamerly.bind(runOf(kmeansSpec)); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("accel journal resumed on the default iteration: %v", err)
	}

	// But a param that changes the bits must refuse.
	widened := core.SummarizerSpec{Name: "kmeans", Params: map[string]string{"k": "9", "restarts": "2"}}
	if err := j.bind(runOf(widened)); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("k change accepted: %v", err)
	}

	// So must every other value that fixes the chunks or their RNGs.
	for name, mutate := range map[string]func(*runIdentity){
		"seed":       func(r *runIdentity) { r.seed++ },
		"strategy":   func(r *runIdentity) { r.strategy = dataset.SplitSalami },
		"chunk size": func(r *runIdentity) { r.chunkPoints-- },
	} {
		run := runOf(kmeansSpec)
		mutate(&run)
		if err := j.bind(run); !errors.Is(err, ErrJournalMismatch) {
			t.Fatalf("%s change accepted: %v", name, err)
		}
	}
}

// TestJournalV4RoundTripPreservesOperator checks the journal format: a
// journal encodes as v4 carrying its run record, decodes to the same
// run, refuses another operator's query and resumes the original one.
func TestJournalV4RoundTripPreservesOperator(t *testing.T) {
	cells, q, plan := recoverCells(t)
	q.Summarizer = core.SummarizerCoreset
	q.CoresetSize = 40

	journal := NewJournal()
	if _, _, err := NewExec(q, plan, WithJournal(journal)).
		Execute(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if op := journal.Operator(); !strings.HasPrefix(op, "coreset(") {
		t.Fatalf("operator = %q", op)
	}

	var buf bytes.Buffer
	if err := journal.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if v := int(raw[4]) | int(raw[5])<<8; v != 4 {
		t.Fatalf("journal encoded as version %d, want 4", v)
	}
	restored, err := DecodeJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if restored.run != journal.run {
		t.Fatalf("run record lost in round trip: %+v != %+v", restored.run, journal.run)
	}
	if restored.Chunks() != journal.Chunks() {
		t.Fatalf("entries lost: %d != %d", restored.Chunks(), journal.Chunks())
	}

	// The restored journal refuses a different operator's query...
	mismatched := q
	mismatched.Summarizer = core.SummarizerKMeans
	if _, _, err := NewExec(mismatched, plan, WithJournal(restored)).
		Execute(context.Background(), cells); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("mismatched resume: %v", err)
	}
	// ...and accepts the original one.
	if _, _, err := NewExec(q, plan, WithJournal(restored)).
		Execute(context.Background(), cells); err != nil {
		t.Fatal(err)
	}

	// A journal no run has bound names nothing and does not encode.
	if err := NewJournal().Encode(&buf); err == nil {
		t.Fatal("unbound journal encoded")
	}
}

// TestDecodeJournalRefusesOldVersions pins the refusal of SKMJ v1–v3:
// they record no seed, strategy or chunk size, so a resume could not
// tell whether they belong to the run.
func TestDecodeJournalRefusesOldVersions(t *testing.T) {
	for v := 1; v <= 3; v++ {
		// A well-formed v1 body (no entries); v2 adds an empty lease
		// section, v3 an operator record before the entries.
		b := append([]byte("SKMJ"), byte(v), 0)
		if v == 3 {
			b = append(b, 6, 0, 'k', 'm', 'e', 'a', 'n', 's')
		}
		b = append(b, 0, 0, 0, 0)
		if v >= 2 {
			b = append(b, 0, 0, 0, 0)
		}
		if _, err := DecodeJournal(bytes.NewReader(b)); !errors.Is(err, ErrBadJournal) {
			t.Fatalf("v%d: err = %v, want ErrBadJournal", v, err)
		}
	}
}

// TestSummarizerMetricsLabeledByOperator checks the per-operator metric
// families: the partial-stage counters carry the operator's label and
// the summary_points family counts emitted weighted points.
func TestSummarizerMetricsLabeledByOperator(t *testing.T) {
	cells := []Cell{{Key: grid.CellKey{Lat: 1, Lon: 1}, Points: engineCell(t, 400, 5)}}
	q := Query{K: 5, Restarts: 2, Seed: 3, Summarizer: core.SummarizerCoreset, CoresetSize: 25}
	plan := PhysicalPlan{ChunkPoints: 100, PartialClones: 2, QueueCapacity: 4}
	_, stats, err := NewExec(q, plan).Execute(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	rep := stats.Report()
	var sawSummary, sawStage bool
	for _, c := range rep.Metrics.Counters {
		if c.Name == "summary_points" && c.Stage == "partial-coreset" && c.Value > 0 {
			sawSummary = true
		}
		if c.Name == "stream_items_in" && c.Stage == "partial-coreset" && c.Value > 0 {
			sawStage = true
		}
	}
	if !sawSummary || !sawStage {
		t.Fatalf("missing operator-labeled families (summary=%t stage=%t)", sawSummary, sawStage)
	}
}
