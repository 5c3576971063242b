package obs

import (
	"encoding/json"
	"math"
	"sort"
)

// ReportSchema identifies the run-report document format. Bump only on
// incompatible changes; additive fields keep the version.
const ReportSchema = "streamkm.run-report/v1"

// CounterSnapshot is one counter's value at snapshot time.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Stage string `json:"stage,omitempty"`
	Value int64  `json:"value"`
}

func (c CounterSnapshot) less(o CounterSnapshot) bool {
	if c.Name != o.Name {
		return c.Name < o.Name
	}
	return c.Stage < o.Stage
}

// GaugeSnapshot is one gauge's value at snapshot time (integer gauges
// are widened to float64 so the document has a single gauge shape).
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Stage string  `json:"stage,omitempty"`
	Value float64 `json:"value"`
}

func (g GaugeSnapshot) less(o GaugeSnapshot) bool {
	if g.Name != o.Name {
		return g.Name < o.Name
	}
	return g.Stage < o.Stage
}

// BucketCount is one histogram bucket: the count of observations v with
// v <= LE (and greater than the previous bucket's bound).
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is one histogram's state at snapshot time. Buckets
// are non-cumulative; Overflow counts observations above the last
// bound. Count always equals the bucket sum plus Overflow.
type HistogramSnapshot struct {
	Name     string        `json:"name"`
	Stage    string        `json:"stage,omitempty"`
	Count    int64         `json:"count"`
	Sum      float64       `json:"sum"`
	Min      float64       `json:"min"`
	Max      float64       `json:"max"`
	Buckets  []BucketCount `json:"buckets"`
	Overflow int64         `json:"overflow"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation inside the bucket the rank falls
// in — the standard fixed-bucket estimator. The first bucket
// interpolates from the observed minimum and every estimate is clamped
// to [Min, Max], so a histogram whose mass sits in one wide bucket
// still answers with a value the distribution actually contained.
// Observations that landed in the overflow bucket answer Max. Returns
// NaN for an empty histogram.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.Count)
	var cum int64
	lower := h.Min
	for _, b := range h.Buckets {
		if b.Count > 0 {
			next := float64(cum + b.Count)
			if rank <= next {
				upper := math.Min(b.LE, h.Max)
				if upper < lower {
					upper = lower
				}
				frac := (rank - float64(cum)) / float64(b.Count)
				return clamp(lower+(upper-lower)*frac, h.Min, h.Max)
			}
			cum += b.Count
			lower = math.Min(b.LE, h.Max)
		}
	}
	return h.Max // rank falls in the overflow bucket
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (h HistogramSnapshot) less(o HistogramSnapshot) bool {
	if h.Name != o.Name {
		return h.Name < o.Name
	}
	return h.Stage < o.Stage
}

// Snapshot is the full metrics section of a run report, sorted by
// (name, stage) for byte-stable marshaling.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Sort orders every section by (name, stage). Registry.Snapshot returns
// sorted documents already; callers that append entries re-sort before
// marshaling.
func (s *Snapshot) Sort() {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].less(s.Counters[j]) })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].less(s.Gauges[j]) })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].less(s.Histograms[j]) })
}

// Counter returns the snapshotted value of (name, stage), or 0.
func (s Snapshot) Counter(name, stage string) int64 {
	for _, c := range s.Counters {
		if c.Name == name && c.Stage == stage {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the snapshotted value of (name, stage) and whether the
// gauge exists.
func (s Snapshot) Gauge(name, stage string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name && g.Stage == stage {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the snapshotted histogram for (name, stage), or nil.
func (s Snapshot) Histogram(name, stage string) *HistogramSnapshot {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name && s.Histograms[i].Stage == stage {
			return &s.Histograms[i]
		}
	}
	return nil
}

// AdmissionReport mirrors the memory governor's plan-fitting decision
// in report form (see govern.Admission).
type AdmissionReport struct {
	BudgetBytes int64 `json:"budget_bytes"`
	ChunkPoints int   `json:"chunk_points"`
	Clones      int   `json:"clones"`
	Workers     int   `json:"workers"`
	Constrained bool  `json:"constrained"`
}

// DegradedReport summarizes a governed run that returned a partial
// answer (see engine.DegradedResult).
type DegradedReport struct {
	DroppedChunks    int  `json:"dropped_chunks"`
	DroppedCells     int  `json:"dropped_cells"`
	PartialCells     int  `json:"partial_cells"`
	PointsLost       int  `json:"points_lost"`
	DeadlineExceeded bool `json:"deadline_exceeded"`
	Stalls           int  `json:"stalls"`
}

// TraceOp is one operator's span aggregate (Registry.TraceSummary),
// cross-referencing the span timeline: Op matches both the timeline
// lane and the stage label of the metric families in Metrics.
type TraceOp struct {
	Op          string  `json:"op"`
	Spans       int     `json:"spans"`
	BusySeconds float64 `json:"busy_seconds"`
}

// Report is the schema-stable JSON run report: run-level facts, the
// governor's decisions, the full metrics snapshot, and the trace
// cross-reference. Marshal with MarshalJSON (or json.MarshalIndent) —
// field order and metric ordering are deterministic.
type Report struct {
	Schema         string           `json:"schema"`
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	Cells          int              `json:"cells"`
	Chunks         int              `json:"chunks"`
	Restarts       int              `json:"restarts"`
	Stalls         int              `json:"stalls"`
	Admission      *AdmissionReport `json:"admission,omitempty"`
	Degraded       *DegradedReport  `json:"degraded,omitempty"`
	Metrics        Snapshot         `json:"metrics"`
	Trace          []TraceOp        `json:"trace,omitempty"`
	DroppedSpans   int              `json:"dropped_spans,omitempty"`
}

// JSON marshals the report with indentation, the exact bytes `pmkm
// -report` writes.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
