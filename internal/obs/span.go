package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the registry's span log: one span per operator
// invocation (a partial step on one chunk, the merge of one cell),
// bounded in memory, summarized per operator into the run report's
// trace section, and rendered as the text timeline `pmkm -trace`
// prints. A span's Op is the stage label its metric families are filed
// under, so a lane in the timeline is a stage in the report.

// maxSpans is how many spans a registry keeps; later spans are counted
// as dropped.
const maxSpans = 4096

// Label is one key=value annotation on a span. The engine labels every
// span with the metric stage it feeds ("stage" → "partial-kmeans").
type Label struct {
	Key, Value string
}

// Span is one operator's work on one item.
type Span struct {
	// Op is the operator name ("partial-kmeans").
	Op string
	// Item identifies the work unit ("N34W118/2": cell and chunk).
	Item string
	// Labels carries the span's metric annotations (nil when none were
	// given).
	Labels []Label
	// Start and End are offsets from the registry's creation.
	Start, End time.Duration
}

// Label returns the value of the labeled key, or "".
func (s Span) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// spanLog collects spans concurrently with bounded memory: once cap
// spans are held, further spans are counted but dropped.
type spanLog struct {
	mu      sync.Mutex
	epoch   time.Time
	cap     int
	spans   []Span
	dropped int
}

// Span starts a span and returns its closer; call the closer when the
// work finishes.
func (r *Registry) Span(op, item string, labels ...Label) func() {
	l := &r.spans
	start := time.Since(l.epoch)
	return func() {
		end := time.Since(l.epoch)
		l.mu.Lock()
		defer l.mu.Unlock()
		if len(l.spans) >= l.cap {
			l.dropped++
			return
		}
		l.spans = append(l.spans, Span{Op: op, Item: item, Labels: labels, Start: start, End: end})
	}
}

// Spans returns a copy of the recorded spans sorted by start time.
func (r *Registry) Spans() []Span {
	l := &r.spans
	l.mu.Lock()
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// DroppedSpans returns how many spans were discarded after the log
// filled.
func (r *Registry) DroppedSpans() int {
	r.spans.mu.Lock()
	defer r.spans.mu.Unlock()
	return r.spans.dropped
}

// TraceSummary aggregates the recorded spans per operator, sorted by
// name: the trace section of the run report. Dropped spans are not
// included (see DroppedSpans).
func (r *Registry) TraceSummary() []TraceOp {
	idx := map[string]int{}
	var ops []TraceOp
	var busy []time.Duration
	for _, s := range r.Spans() {
		i, ok := idx[s.Op]
		if !ok {
			i = len(ops)
			idx[s.Op] = i
			ops = append(ops, TraceOp{Op: s.Op})
			busy = append(busy, 0)
		}
		ops[i].Spans++
		busy[i] += s.Duration()
	}
	for i := range ops {
		ops[i].BusySeconds = busy[i].Seconds()
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Op < ops[j].Op })
	return ops
}

// Timeline renders the spans as a text gantt chart: one lane per
// operator, '#' marking busy intervals, scaled to width columns.
func (r *Registry) Timeline(width int) string {
	if width < 10 {
		width = 10
	}
	spans := r.Spans()
	if len(spans) == 0 {
		return "(no spans recorded)\n"
	}
	var horizon time.Duration
	ops := map[string][]Span{}
	var order []string
	for _, s := range spans {
		if s.End > horizon {
			horizon = s.End
		}
		if _, seen := ops[s.Op]; !seen {
			order = append(order, s.Op)
		}
		ops[s.Op] = append(ops[s.Op], s)
	}
	if horizon == 0 {
		horizon = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline over %v (1 col = %v)\n", horizon.Round(time.Millisecond),
		(horizon / time.Duration(width)).Round(time.Microsecond))
	for _, op := range order {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = '.'
		}
		var busy time.Duration
		for _, s := range ops[op] {
			busy += s.Duration()
			lo := int(int64(s.Start) * int64(width) / int64(horizon))
			hi := int(int64(s.End) * int64(width) / int64(horizon))
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				lane[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-16s |%s| %3d spans, busy %v\n", op, lane, len(ops[op]),
			busy.Round(time.Millisecond))
	}
	if d := r.DroppedSpans(); d > 0 {
		fmt.Fprintf(&b, "(%d spans dropped beyond capacity)\n", d)
	}
	return b.String()
}
