package engine

import (
	"context"
	"strings"
	"testing"

	"streamkm/internal/grid"
)

func TestExecuteRecordsSpans(t *testing.T) {
	cells := []Cell{{Key: grid.CellKey{Lat: 3, Lon: 4}, Points: engineCell(t, 600, 61)}}
	q := Query{K: 6, Restarts: 2, Seed: 7}
	plan := PhysicalPlan{ChunkPoints: 200, PartialClones: 2, QueueCapacity: 4}
	_, stats, err := Execute(context.Background(), cells, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trace == nil {
		t.Fatal("no tracer attached")
	}
	spans := stats.Trace.Spans()
	var partials, merges int
	for _, s := range spans {
		switch s.Op {
		case "partial-kmeans":
			partials++
			if !strings.Contains(s.Item, "N03E004") {
				t.Fatalf("span item %q missing cell key", s.Item)
			}
		case "merge-kmeans":
			merges++
		default:
			t.Fatalf("unexpected span op %q", s.Op)
		}
		if s.End < s.Start {
			t.Fatalf("inverted span %+v", s)
		}
	}
	if partials != 3 || merges != 1 {
		t.Fatalf("spans: %d partial, %d merge (want 3, 1)", partials, merges)
	}
	out := stats.Trace.Timeline(40)
	if !strings.Contains(out, "partial-kmeans") || !strings.Contains(out, "merge-kmeans") {
		t.Fatalf("timeline missing lanes:\n%s", out)
	}
}
