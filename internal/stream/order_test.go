package stream

import (
	"context"
	"testing"
	"testing/quick"
)

// Property: a single-clone pipeline preserves FIFO order end to end
// (cloned stages may reorder; a 1-clone chain must not).
func TestSingleClonePreservesOrder(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		g, ctx := NewGroup(context.Background())
		q1 := NewQueue[int]("a", 4)
		q2 := NewQueue[int]("b", 4)
		q3 := NewQueue[int]("c", 4)
		RunSource(g, ctx, nil, "src", rangeSource(n), q1)
		RunTransform(g, ctx, nil, "x2", 1, func(_ context.Context, x int, emit Emit[int]) error { return emit(x * 2) }, q1, q2)
		RunTransform(g, ctx, nil, "id", 1, func(_ context.Context, x int, emit Emit[int]) error { return emit(x) }, q2, q3)
		var got []int
		RunSink(g, ctx, nil, "sink", 1, func(_ context.Context, v int) error {
			got = append(got, v)
			return nil
		}, q3)
		if err := g.Wait(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != 2*i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
