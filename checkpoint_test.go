package streamkm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

func TestCheckpointResumeIsBitIdentical(t *testing.T) {
	opts := Options{K: 6, Restarts: 3, ChunkPoints: 90, Seed: 13}
	pts := blobPoints(700)

	// Reference run: straight through.
	ref, err := NewStreamClusterer(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := ref.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Checkpointed run: stop mid-stream (between chunks AND mid-buffer),
	// serialize, resume, continue.
	cut := 400 // 4 full chunks + 40 buffered points
	first, err := NewStreamClusterer(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:cut] {
		if err := first.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeStreamClusterer(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Pushed() != cut || resumed.Partials() != 4 {
		t.Fatalf("resumed state: pushed=%d partials=%d", resumed.Pushed(), resumed.Partials())
	}
	for _, p := range pts[cut:] {
		if err := resumed.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := resumed.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if got.MergeMSE != want.MergeMSE {
		t.Fatalf("resumed MergeMSE %g != reference %g", got.MergeMSE, want.MergeMSE)
	}
	if len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("centroid counts differ")
	}
	for i := range want.Centroids {
		for d := range want.Centroids[i] {
			if got.Centroids[i][d] != want.Centroids[i][d] {
				t.Fatalf("centroid %d differs after resume", i)
			}
		}
	}
	var w float64
	for _, x := range got.Weights {
		w += x
	}
	if math.Abs(w-700) > 1e-6 {
		t.Fatalf("resumed run lost data: weight %g", w)
	}
}

func TestCheckpointAfterFinishRejected(t *testing.T) {
	sc, err := NewStreamClusterer(2, Options{K: 2, Restarts: 1, ChunkPoints: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range blobPoints(20) {
		if err := sc.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.Finish(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.Checkpoint(&buf); err == nil {
		t.Fatal("Checkpoint after Finish should error")
	}
}

func TestResumeRejectsCorruption(t *testing.T) {
	opts := Options{K: 3, Restarts: 2, ChunkPoints: 50, Seed: 3}
	sc, err := NewStreamClusterer(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range blobPoints(120) {
		if err := sc.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sc.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("XXXX"), good[4:]...),
		"bad version":  func() []byte { b := append([]byte{}, good...); b[4] = 9; return b }(),
		"truncated":    good[:len(good)-5],
		"flipped data": func() []byte { b := append([]byte{}, good...); b[len(b)-10] ^= 0x40; return b }(),
	}
	for name, data := range cases {
		if _, err := ResumeStreamClusterer(bytes.NewReader(data), opts); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// failingWriter errors after n bytes, exercising every write branch.
type failingWriter struct{ remaining int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		return 0, errWriterFull
	}
	if len(p) > w.remaining {
		n := w.remaining
		w.remaining = 0
		return n, errWriterFull
	}
	w.remaining -= len(p)
	return len(p), nil
}

type sentinelError string

func (e sentinelError) Error() string { return string(e) }

const errWriterFull = sentinelError("writer full")

func TestCheckpointPropagatesWriteErrors(t *testing.T) {
	opts := Options{K: 3, Restarts: 2, ChunkPoints: 50, Seed: 3}
	sc, err := NewStreamClusterer(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range blobPoints(120) {
		if err := sc.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	var full bytes.Buffer
	if err := sc.Checkpoint(&full); err != nil {
		t.Fatal(err)
	}
	// Fail at every prefix length; Checkpoint must surface an error for
	// each truncation point rather than silently writing a short file.
	for n := 0; n < full.Len(); n += 97 {
		if err := sc.Checkpoint(&failingWriter{remaining: n}); err == nil {
			t.Fatalf("no error when writer fails after %d bytes", n)
		}
	}
}

// windowedCheckpointScenario runs a reference windowed clusterer and a
// checkpointed-then-resumed one over the same stream and requires
// bit-identical snapshots for the rest of the stream.
func windowedCheckpointScenario(t *testing.T, opts WindowedOptions, cut int) {
	t.Helper()
	pts := blobPoints(900)
	ref, err := NewWindowedClusterer(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewWindowedClusterer(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:cut] {
		if err := ref.Push(p); err != nil {
			t.Fatal(err)
		}
		if err := live.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := live.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeWindowedClusterer(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Consumed() != cut {
		t.Fatalf("resumed consumed %d, want %d", resumed.Consumed(), cut)
	}
	for i, p := range pts[cut:] {
		if err := ref.Push(p); err != nil {
			t.Fatal(err)
		}
		if err := resumed.Push(p); err != nil {
			t.Fatal(err)
		}
		if i%61 != 0 {
			continue
		}
		a, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := resumed.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if a.MergeMSE != b.MergeMSE {
			t.Fatalf("push %d: resumed MergeMSE %g != reference %g", i, b.MergeMSE, a.MergeMSE)
		}
		for j := range a.Centroids {
			for d := range a.Centroids[j] {
				if a.Centroids[j][d] != b.Centroids[j][d] {
					t.Fatalf("push %d: centroid %d differs after resume", i, j)
				}
			}
			if a.Weights[j] != b.Weights[j] {
				t.Fatalf("push %d: weight %d differs after resume", i, j)
			}
		}
	}
}

func TestWindowedCheckpointResumeIsBitIdentical(t *testing.T) {
	for _, solver := range []string{"", "minibatch"} {
		// Cuts land mid-chunk (130), on a rotation boundary (240), and
		// past a window expiry (610).
		for _, cut := range []int{130, 240, 610} {
			opts := WindowedOptions{
				K: 5, ChunkPoints: 80, WindowChunks: 4,
				Restarts: 2, Seed: 21, MergeSolver: solver,
			}
			windowedCheckpointScenario(t, opts, cut)
		}
	}
}

func TestWindowedCheckpointStatsSurvive(t *testing.T) {
	opts := WindowedOptions{K: 4, ChunkPoints: 60, WindowChunks: 3, Seed: 7, MergeSolver: "minibatch"}
	w, err := NewWindowedClusterer(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range blobPoints(500) {
		if err := w.Push(p); err != nil {
			t.Fatal(err)
		}
		if i >= 100 && i%50 == 0 {
			if _, err := w.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := w.SnapshotStats()
	if before.Queries == 0 {
		t.Fatal("scenario issued no queries")
	}
	var buf bytes.Buffer
	if err := w.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeWindowedClusterer(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.SnapshotStats(); got != before {
		t.Fatalf("snapshot stats lost in checkpoint: %+v != %+v", got, before)
	}
}

func TestCheckpointKindMismatchRejected(t *testing.T) {
	wopts := WindowedOptions{K: 3, ChunkPoints: 30, WindowChunks: 2, Seed: 1}
	w, err := NewWindowedClusterer(2, wopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range blobPoints(100) {
		if err := w.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	var wbuf bytes.Buffer
	if err := w.Checkpoint(&wbuf); err != nil {
		t.Fatal(err)
	}
	sopts := Options{K: 3, Restarts: 1, ChunkPoints: 30, Seed: 1}
	if _, err := ResumeStreamClusterer(bytes.NewReader(wbuf.Bytes()), sopts); err == nil {
		t.Fatal("stream resume of a windowed checkpoint should fail")
	}

	sc, err := NewStreamClusterer(2, sopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range blobPoints(100) {
		if err := sc.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	var sbuf bytes.Buffer
	if err := sc.Checkpoint(&sbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeWindowedClusterer(bytes.NewReader(sbuf.Bytes()), wopts); err == nil {
		t.Fatal("windowed resume of a stream (v1) checkpoint should fail")
	}
}

func TestWindowedResumeRejectsCorruption(t *testing.T) {
	opts := WindowedOptions{K: 3, ChunkPoints: 40, WindowChunks: 2, Seed: 5, MergeSolver: "minibatch"}
	w, err := NewWindowedClusterer(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range blobPoints(200) {
		if err := w.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := w.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"bad version": func() []byte { b := append([]byte{}, good...); b[4] = 9; return b }(),
		"bad kind":    func() []byte { b := append([]byte{}, good...); b[6] = 7; return b }(),
		"truncated":   good[:len(good)-5],
		"flipped":     func() []byte { b := append([]byte{}, good...); b[len(b)-12] ^= 0x20; return b }(),
	}
	for name, data := range cases {
		if _, err := ResumeWindowedClusterer(bytes.NewReader(data), opts); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestResumeValidatesOptions(t *testing.T) {
	opts := Options{K: 3, Restarts: 2, ChunkPoints: 50, Seed: 3}
	sc, err := NewStreamClusterer(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Push([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sc.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.ChunkPoints = 0
	if _, err := ResumeStreamClusterer(bytes.NewReader(buf.Bytes()), bad); err == nil {
		t.Fatal("invalid options should be rejected at resume")
	}
}

// TestResumeRefusesOversizedTail: a checkpoint whose buffered tail
// exceeds the resuming chunk budget, or the points it claims were
// consumed, is refused for both clusterer kinds. Accepting it would make
// the next Push summarize the whole tail as one oversized chunk.
func TestResumeRefusesOversizedTail(t *testing.T) {
	pts := blobPoints(40) // fits one 50-point chunk: all 40 stay buffered
	sopts := Options{K: 3, Restarts: 1, ChunkPoints: 50, Seed: 3}
	sc, err := NewStreamClusterer(2, sopts)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, sc.Push, pts)
	var sbuf bytes.Buffer
	if err := sc.Checkpoint(&sbuf); err != nil {
		t.Fatal(err)
	}
	wopts := WindowedOptions{K: 3, ChunkPoints: 50, WindowChunks: 2, Seed: 3}
	w, err := NewWindowedClusterer(2, wopts)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, w.Push, pts)
	var wbuf bytes.Buffer
	if err := w.Checkpoint(&wbuf); err != nil {
		t.Fatal(err)
	}

	// The v1 push count sits at offset 8; the v2 consumed count at body
	// offset 2, after a 15-byte header, under the body's CRC-32.
	streamPushed5 := append([]byte(nil), sbuf.Bytes()...)
	binary.LittleEndian.PutUint64(streamPushed5[8:], 5)
	windowConsumed5 := append([]byte(nil), wbuf.Bytes()...)
	binary.LittleEndian.PutUint64(windowConsumed5[17:], 5)
	body := windowConsumed5[15 : len(windowConsumed5)-4]
	binary.LittleEndian.PutUint32(windowConsumed5[len(windowConsumed5)-4:], crc32.ChecksumIEEE(body))

	smallStream, smallWindow := sopts, wopts
	smallStream.ChunkPoints, smallWindow.ChunkPoints = 20, 20
	if _, err := ResumeStreamClusterer(bytes.NewReader(sbuf.Bytes()), smallStream); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("stream tail over the chunk budget: err = %v", err)
	}
	if _, err := ResumeStreamClusterer(bytes.NewReader(streamPushed5), sopts); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("stream tail over the push count: err = %v", err)
	}
	if _, err := ResumeWindowedClusterer(bytes.NewReader(wbuf.Bytes()), smallWindow); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("windowed tail over the chunk budget: err = %v", err)
	}
	if _, err := ResumeWindowedClusterer(bytes.NewReader(windowConsumed5), wopts); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("windowed tail over the consumed count: err = %v", err)
	}
	// The unmodified files still resume under their own options.
	if _, err := ResumeStreamClusterer(bytes.NewReader(sbuf.Bytes()), sopts); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeWindowedClusterer(bytes.NewReader(wbuf.Bytes()), wopts); err != nil {
		t.Fatal(err)
	}
}
