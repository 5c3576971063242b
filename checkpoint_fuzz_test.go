package streamkm

import (
	"bytes"
	"testing"
)

// FuzzCheckpoint drives both checkpoint decoders with arbitrary bytes.
// The decoders must never panic or allocate proportionally to hostile
// header counts, any tail they accept must fit the chunk budget and the
// consumed count, and any input they accept must re-encode and decode
// to the same state (a successful decode is a real clusterer, not a
// half-initialized one). The seed corpus holds valid v1 (stream) and v2
// (windowed) documents plus truncations; regressions found by fuzzing
// are committed under testdata/fuzz/FuzzCheckpoint.
func FuzzCheckpoint(f *testing.F) {
	sopts := Options{K: 3, Restarts: 1, ChunkPoints: 12, Seed: 9}
	sc, err := NewStreamClusterer(2, sopts)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range blobPoints(30) {
		if err := sc.Push(p); err != nil {
			f.Fatal(err)
		}
	}
	var sbuf bytes.Buffer
	if err := sc.Checkpoint(&sbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(sbuf.Bytes())
	f.Add(sbuf.Bytes()[:sbuf.Len()/2])

	wopts := WindowedOptions{K: 3, ChunkPoints: 12, WindowChunks: 2, Seed: 9, MergeSolver: "minibatch"}
	w, err := NewWindowedClusterer(2, wopts)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range blobPoints(40) {
		if err := w.Push(p); err != nil {
			f.Fatal(err)
		}
	}
	var wbuf bytes.Buffer
	if err := w.Checkpoint(&wbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(wbuf.Bytes())
	f.Add(wbuf.Bytes()[:wbuf.Len()-7])
	f.Add([]byte("SKMC"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if sc, err := ResumeStreamClusterer(bytes.NewReader(data), sopts); err == nil {
			if tail := sc.chunks.Tail().Len(); tail > sopts.ChunkPoints || tail > sc.Pushed() {
				t.Fatalf("accepted a %d-point tail (budget %d, %d pushed)", tail, sopts.ChunkPoints, sc.Pushed())
			}
			var out bytes.Buffer
			if err := sc.Checkpoint(&out); err != nil {
				t.Fatalf("accepted checkpoint fails to re-encode: %v", err)
			}
			if _, err := ResumeStreamClusterer(bytes.NewReader(out.Bytes()), sopts); err != nil {
				t.Fatalf("re-encoded checkpoint fails to decode: %v", err)
			}
		}
		if w, err := ResumeWindowedClusterer(bytes.NewReader(data), wopts); err == nil {
			st, err := w.inner.State()
			if err != nil {
				t.Fatal(err)
			}
			if tail := st.Tail.Len(); tail > wopts.ChunkPoints || tail > st.Consumed {
				t.Fatalf("accepted a %d-point windowed tail (budget %d, %d consumed)", tail, wopts.ChunkPoints, st.Consumed)
			}
			var out bytes.Buffer
			if err := w.Checkpoint(&out); err != nil {
				t.Fatalf("accepted windowed checkpoint fails to re-encode: %v", err)
			}
			if _, err := ResumeWindowedClusterer(bytes.NewReader(out.Bytes()), wopts); err != nil {
				t.Fatalf("re-encoded windowed checkpoint fails to decode: %v", err)
			}
		}
	})
}
