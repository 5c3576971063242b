package engine

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"streamkm/internal/fault"
	"streamkm/internal/obs"
	"streamkm/internal/stream"
)

// Cross-commit golden for the run report. The file under testdata was
// generated once and committed; a change to how the engine records its
// telemetry must reproduce every deterministic part of the report for
// three executions: a plain one, a supervised one absorbing an injected
// error and panic, and a degraded one that quarantines a chunk.
// Regenerate only for an intended change of the report:
//
//	go test -run TestReportGolden ./internal/engine -update-report-golden
var updateReportGolden = flag.Bool("update-report-golden", false, "rewrite testdata/report_golden.txt from the current tree")

const reportGoldenFile = "testdata/report_golden.txt"

// reportGoldenLines renders the deterministic parts of a run report,
// one fact per line, prefixed by the run's name. Timings (the *_seconds
// families' gauges, sums and buckets) and the scheduling-dependent
// queue_highwater gauge are left out; every key is still recorded.
func reportGoldenLines(run string, rep *obs.Report) []string {
	var out []string
	add := func(key, value string) {
		out = append(out, fmt.Sprintf("%s %s = %s", run, key, value))
	}
	label := func(name, stage string) string {
		if stage == "" {
			return name
		}
		return name + "{" + stage + "}"
	}
	timing := func(name string) bool { return strings.HasSuffix(name, "_seconds") }

	add("schema", rep.Schema)
	add("cells", fmt.Sprint(rep.Cells))
	add("chunks", fmt.Sprint(rep.Chunks))
	add("restarts", fmt.Sprint(rep.Restarts))
	add("stalls", fmt.Sprint(rep.Stalls))
	if d := rep.Degraded; d != nil {
		add("degraded", fmt.Sprintf("%+v", *d))
	}
	m := rep.Metrics
	for _, c := range m.Counters {
		add("counter "+label(c.Name, c.Stage), fmt.Sprint(c.Value))
	}
	for _, g := range m.Gauges {
		v := fmt.Sprint(g.Value)
		if timing(g.Name) || g.Name == obs.QueueHighWater {
			v = "-"
		}
		add("gauge "+label(g.Name, g.Stage), v)
	}
	for _, h := range m.Histograms {
		v := fmt.Sprintf("count=%d", h.Count)
		if !timing(h.Name) {
			counts := make([]string, 0, len(h.Buckets)+1)
			for _, b := range h.Buckets {
				counts = append(counts, fmt.Sprint(b.Count))
			}
			counts = append(counts, fmt.Sprint(h.Overflow))
			v += " buckets=" + strings.Join(counts, ",")
		}
		add("histogram "+label(h.Name, h.Stage), v)
	}
	ops := append([]obs.TraceOp(nil), rep.Trace...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Op < ops[j].Op })
	for _, o := range ops {
		add("trace "+o.Op, fmt.Sprintf("spans=%d", o.Spans))
	}
	add("dropped_spans", fmt.Sprint(rep.DroppedSpans))
	return out
}

// reportGoldenRuns executes the three pinned runs over governCells'
// two cells (4 + 3 chunks, one partial clone) and renders each report.
func reportGoldenRuns(t *testing.T) []string {
	t.Helper()
	cells, q, plan := governCells(t)
	runs := []struct {
		name string
		opts []ExecOption
	}{
		{"plain", nil},
		{"supervised", []ExecOption{
			WithObserver(obs.NewRegistry()),
			WithRetry(stream.RetryPolicy{MaxRetries: 1, BaseBackoff: -1}),
			WithRestarts(2),
			// Invocation 3 fails and its retry (4) succeeds; invocation
			// 6 panics and its retry (7) succeeds.
			WithFaultInjection(fault.New(fault.Config{ErrorNth: 3, PanicNth: 6})),
		}},
		{"degraded", []ExecOption{
			// Cell 0 chunk 2 fails with no retry budget and is dropped.
			WithFaultInjection(fault.ErrorNth(3)),
			WithDegradedResults(),
		}},
	}
	var lines []string
	for _, r := range runs {
		_, stats, err := NewExec(q, plan, r.opts...).Execute(context.Background(), cells)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		lines = append(lines, reportGoldenLines(r.name, stats.Report())...)
	}
	return lines
}

// TestReportGolden pins the run report's keys and deterministic values
// across commits.
func TestReportGolden(t *testing.T) {
	got := strings.Join(reportGoldenRuns(t), "\n") + "\n"
	path := filepath.FromSlash(reportGoldenFile)
	if *updateReportGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-report-golden): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("run report differs from %s at line %d:\n got: %s\nwant: %s", reportGoldenFile, i+1, g, w)
			}
		}
	}
}
