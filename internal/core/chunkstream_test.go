package core

import (
	"bytes"
	"errors"
	"testing"

	"streamkm/internal/dataset"
	"streamkm/internal/rng"
)

// recordingSummarizer records each chunk it is handed and the state of
// the generator it is handed with, then returns the chunk unweighted
// (or err, when set).
type recordingSummarizer struct {
	chunks [][]float64
	rngs   [][]byte
	err    error
}

func (s *recordingSummarizer) Summarize(chunk *dataset.Set, r *rng.RNG) (*PartialResult, error) {
	state, err := r.MarshalBinary()
	if err != nil {
		return nil, err
	}
	s.rngs = append(s.rngs, state)
	s.chunks = append(s.chunks, append([]float64(nil), chunk.Data()...))
	if s.err != nil {
		return nil, s.err
	}
	return &PartialResult{Centroids: dataset.Unweighted(chunk), Points: chunk.Len()}, nil
}

func (s *recordingSummarizer) Spec() SummarizerSpec { return SummarizerSpec{Name: "recording"} }

func rngState(t *testing.T, r *rng.RNG) []byte {
	t.Helper()
	state, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestChunkStreamMatchesSliceCellSalami: salami slicing draws nothing
// from the generator, so SliceCell hands salami chunk i the i-th Split.
// A stream fed those chunks back to back hands its chunk i the same
// points and the same generator state, and its merge generator equals
// SliceCell's.
func TestChunkStreamMatchesSliceCellSalami(t *testing.T) {
	const dim, budget, seed = 3, 25, 17
	set := dataset.MustNewSet(dim)
	for _, p := range windowPoints(4*budget, dim, 5) {
		if err := set.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	cell, err := SliceCell(set, 0, budget, dataset.SplitSalami, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	summ := &recordingSummarizer{}
	cs, err := NewChunkStream(dim, budget, summ, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range cell.Chunks {
		for i := 0; i < chunk.Len(); i++ {
			if _, err := cs.Push(chunk.At(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(summ.chunks) != len(cell.Chunks) {
		t.Fatalf("stream summarized %d chunks, SliceCell cut %d", len(summ.chunks), len(cell.Chunks))
	}
	for i, chunk := range cell.Chunks {
		if !equalFloats(summ.chunks[i], chunk.Data()) {
			t.Fatalf("chunk %d: points differ from SliceCell's", i)
		}
		if !bytes.Equal(summ.rngs[i], rngState(t, cell.ChunkRNGs[i])) {
			t.Fatalf("chunk %d: generator differs from SliceCell's", i)
		}
	}
	if !bytes.Equal(rngState(t, cs.MergeRNG()), rngState(t, cell.MergeRNG)) {
		t.Fatal("merge generator differs from SliceCell's")
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChunkStreamSummarizerErrorKeepsChunk: a summarizer failure
// surfaces from the Push that completed the chunk, after one attempt,
// and leaves the chunk buffered; the failed chunk's Split is spent, so
// a later Flush draws the next one.
func TestChunkStreamSummarizerErrorKeepsChunk(t *testing.T) {
	boom := errors.New("summarizer failed")
	summ := &recordingSummarizer{err: boom}
	cs, err := NewChunkStream(1, 4, summ, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if pr, err := cs.Push([]float64{float64(i)}); pr != nil || err != nil {
			t.Fatalf("push %d: summary %v, err %v before the chunk is full", i, pr, err)
		}
	}
	pr, err := cs.Push([]float64{3})
	if !errors.Is(err, boom) || pr != nil {
		t.Fatalf("Push = %v, %v; want the summarizer's error", pr, err)
	}
	if len(summ.chunks) != 1 {
		t.Fatalf("summarizer called %d times, want 1", len(summ.chunks))
	}
	if cs.Tail().Len() != 4 || cs.Consumed() != 4 {
		t.Fatalf("after the failure: tail %d, consumed %d; want 4, 4", cs.Tail().Len(), cs.Consumed())
	}
	summ.err = nil
	if pr, err := cs.Flush(); err != nil || pr.Points != 4 {
		t.Fatalf("Flush = %v, %v", pr, err)
	}
	r := rng.New(1)
	r.Split()
	if !bytes.Equal(summ.rngs[1], rngState(t, r.Split())) {
		t.Fatal("the retried chunk did not draw the stream's second Split")
	}
	if cs.Tail().Len() != 0 {
		t.Fatalf("tail holds %d points after a successful Flush", cs.Tail().Len())
	}
}

// TestChunkStreamPushAllocatesNothing: once the buffer has grown to the
// chunk budget, a Push that completes no chunk allocates nothing.
func TestChunkStreamPushAllocatesNothing(t *testing.T) {
	const budget = 1000
	cs, err := NewChunkStream(2, budget, &recordingSummarizer{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{1, 2}
	for i := 0; i < budget; i++ { // one full chunk grows the slab
		if _, err := cs.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(budget/2, func() {
		if _, err := cs.Push(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Push allocates %v objects per point, want 0", allocs)
	}
}

// TestChunkStreamRestore: a restored stream continues exactly where the
// captured one stood, and a state that cannot come from this stream's
// shape is refused.
func TestChunkStreamRestore(t *testing.T) {
	cs, err := NewChunkStream(2, 10, &recordingSummarizer{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if _, err := cs.Push([]float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cs.State()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewChunkStream(2, 10, &recordingSummarizer{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	if restored.Consumed() != 13 || !equalFloats(restored.Tail().Data(), cs.Tail().Data()) {
		t.Fatalf("restored consumed %d, tail %v", restored.Consumed(), restored.Tail().Data())
	}
	if !bytes.Equal(rngState(t, restored.MergeRNG()), rngState(t, cs.MergeRNG())) {
		t.Fatal("restored generator diverges")
	}

	mutate := func(f func(*ChunkState)) ChunkState {
		bad := st
		f(&bad)
		return bad
	}
	cases := map[string]struct {
		dim, budget int
		st          ChunkState
	}{
		"tail over budget":   {2, 2, st},
		"tail over consumed": {2, 10, mutate(func(s *ChunkState) { s.Consumed = 2 })},
		"negative consumed":  {2, 10, mutate(func(s *ChunkState) { s.Consumed = -1 })},
		"wrong dimension":    {3, 10, st},
		"bad generator":      {2, 10, mutate(func(s *ChunkState) { s.RNGState = []byte{1, 2} })},
	}
	for name, tc := range cases {
		fresh, err := NewChunkStream(tc.dim, tc.budget, &recordingSummarizer{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(tc.st); err == nil {
			t.Errorf("%s: restore accepted", name)
		}
	}
}
