package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests for the registry's span log: recording, the capacity bound and
// its drop count, the per-op summary behind the report's trace section,
// and the text timeline.

// spanRegistry returns a registry whose span log holds at most
// capacity spans.
func spanRegistry(capacity int) *Registry {
	r := NewRegistry()
	r.spans.cap = capacity
	return r
}

func TestSpanRecording(t *testing.T) {
	tr := spanRegistry(10)
	end := tr.Span("op-a", "item-1")
	time.Sleep(2 * time.Millisecond)
	end()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	s := spans[0]
	if s.Op != "op-a" || s.Item != "item-1" {
		t.Fatalf("span %+v", s)
	}
	if s.Duration() < time.Millisecond {
		t.Fatalf("duration %v too small", s.Duration())
	}
	if s.End <= s.Start {
		t.Fatalf("span times inverted: %+v", s)
	}
}

func TestCapacityBound(t *testing.T) {
	tr := spanRegistry(3)
	for i := 0; i < 10; i++ {
		tr.Span("op", "x")()
	}
	if len(tr.Spans()) != 3 {
		t.Fatalf("kept %d spans, cap 3", len(tr.Spans()))
	}
	if tr.DroppedSpans() != 7 {
		t.Fatalf("Dropped = %d", tr.DroppedSpans())
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := spanRegistry(1000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Span("worker", "item")()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()) + tr.DroppedSpans(); got != 800 {
		t.Fatalf("spans+dropped = %d, want 800", got)
	}
}

func TestSpansSortedByStart(t *testing.T) {
	tr := spanRegistry(100)
	for i := 0; i < 20; i++ {
		tr.Span("op", "x")()
	}
	spans := tr.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatal("spans not sorted by start")
		}
	}
}

func TestTimeline(t *testing.T) {
	tr := spanRegistry(100)
	endA := tr.Span("partial", "c0")
	time.Sleep(time.Millisecond)
	endA()
	endB := tr.Span("merge", "cell")
	time.Sleep(time.Millisecond)
	endB()
	out := tr.Timeline(40)
	for _, want := range []string{"timeline over", "partial", "merge", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// tiny width is clamped, an empty span log renders a placeholder
	if !strings.Contains(spanRegistry(1).Timeline(1), "no spans") {
		t.Fatal("empty span log should render placeholder")
	}
}

func TestTimelineReportsDropped(t *testing.T) {
	tr := spanRegistry(1)
	tr.Span("op", "a")()
	tr.Span("op", "b")()
	if !strings.Contains(tr.Timeline(20), "dropped") {
		t.Fatal("timeline should mention dropped spans")
	}
}

func TestSpanLabelsRecorded(t *testing.T) {
	tr := spanRegistry(16)
	end := tr.Span("partial-kmeans", "cell0/1",
		Label{Key: "stage", Value: "partial-kmeans"},
		Label{Key: "chunk", Value: "1"})
	end()
	tr.Span("merge-kmeans", "cell0")()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if got := spans[0].Label("stage"); got != "partial-kmeans" {
		t.Fatalf(`Label("stage") = %q`, got)
	}
	if got := spans[0].Label("chunk"); got != "1" {
		t.Fatalf(`Label("chunk") = %q`, got)
	}
	if got := spans[0].Label("absent"); got != "" {
		t.Fatalf(`absent label = %q, want ""`, got)
	}
	if spans[1].Labels != nil {
		t.Fatalf("unlabeled span recorded labels %v", spans[1].Labels)
	}
}

func TestSummaryAggregatesPerOp(t *testing.T) {
	tr := spanRegistry(16)
	for i := 0; i < 3; i++ {
		end := tr.Span("partial-kmeans", "x", Label{Key: "stage", Value: "partial-kmeans"})
		time.Sleep(time.Millisecond)
		end()
	}
	tr.Span("merge-kmeans", "y")()
	sum := tr.TraceSummary()
	if len(sum) != 2 {
		t.Fatalf("summary has %d ops, want 2: %+v", len(sum), sum)
	}
	// Sorted by op name: merge-kmeans before partial-kmeans.
	if sum[0].Op != "merge-kmeans" || sum[1].Op != "partial-kmeans" {
		t.Fatalf("summary order %q, %q", sum[0].Op, sum[1].Op)
	}
	if sum[1].Spans != 3 {
		t.Fatalf("partial spans = %d, want 3", sum[1].Spans)
	}
	if sum[1].BusySeconds <= 0 {
		t.Fatalf("partial busy = %v, want > 0", sum[1].BusySeconds)
	}
}

// TestLabeledSpanDropConcurrent closes many labeled spans at once
// against a tiny capacity: exactly cap spans survive, the rest are
// counted dropped, and TraceSummary sees only the retained ones.
func TestLabeledSpanDropConcurrent(t *testing.T) {
	const capacity, total = 8, 64
	tr := spanRegistry(capacity)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Span("partial-kmeans", "item", Label{Key: "stage", Value: "partial-kmeans"})()
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != capacity {
		t.Fatalf("retained %d spans, want %d", got, capacity)
	}
	if got := tr.DroppedSpans(); got != total-capacity {
		t.Fatalf("dropped = %d, want %d", got, total-capacity)
	}
	sum := tr.TraceSummary()
	if len(sum) != 1 || sum[0].Spans != capacity {
		t.Fatalf("summary %+v, want %d spans of one op", sum, capacity)
	}
}
