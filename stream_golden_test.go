package streamkm

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Cross-commit goldens for the two streaming clusterers. The digests
// and SKMC files under testdata/stream_golden were generated once and
// committed; a refactor of the chunk, merge or checkpoint code must
// reproduce them exactly. Regenerate only for an intended change of
// answers or checkpoint layout:
//
//	go test -run TestStreamGolden -update-stream-golden .
var updateStreamGolden = flag.Bool("update-stream-golden", false, "rewrite testdata/stream_golden from the current tree")

const streamGoldenDir = "testdata/stream_golden"

// v1PartialTimeOffset locates the SKMC v1 accumulated-partial-time
// field (magic 4, version 2, dim 2, pushed 8): wall-clock time, so
// byte comparisons of v1 files mask it.
const v1PartialTimeOffset = 16

// goldenStream is a deterministic drifting 3-d mixture: four centers
// move apart as the stream advances, so windowed answers change with
// stream position and the mini-batch index has something to track.
func goldenStream(n int) [][]float64 {
	state := uint64(0x5eed5eed)
	noise := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/(1<<53) - 0.5
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := float64(i % 4)
		drift := float64(i) / 200
		pts[i] = []float64{
			8*c + drift*c + 2*noise(),
			-4*c + drift + 2*noise(),
			c*c - drift/2 + noise(),
		}
	}
	return pts
}

// digest hashes every answer-bearing field of a result (partition
// count, merge MSE, centroid weights and coordinates) and none of its
// timings.
func digest(r *Result) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(r.Partitions))
	word(math.Float64bits(r.MergeMSE))
	word(uint64(len(r.Centroids)))
	for i, c := range r.Centroids {
		word(math.Float64bits(r.Weights[i]))
		for _, x := range c {
			word(math.Float64bits(x))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stream cases: each summarizer over a stream whose final tail is at
// least K (1000 = 16 chunks + 40) and one whose tail is below K
// (962 = 16 chunks + 2, kept as unit-weight centroids). The v1
// checkpoint is taken mid-chunk at 530 (8 chunks + 50 buffered).
const (
	goldenStreamLong  = 1000
	goldenStreamShort = 962
	goldenStreamCut   = 530
)

func goldenStreamOptions(summarizer string) Options {
	return Options{
		K: 4, Restarts: 2, ChunkPoints: 60, Seed: 77,
		Summarizer: summarizer, ECVQLambda: 0.05,
	}
}

// Windowed cases: both merge solvers, sampled mid-chunk (230 = 4
// rotations + 30), on a rotation boundary (400 = 8 rotations, a warm
// refine under minibatch) and after a resync (465 = 9 rotations + 15;
// ResyncEvery 3 resyncs at rotation 9). The v2 checkpoint is taken
// mid-chunk at 330, before the last two samples.
var goldenWindowSamples = []int{230, 400, 465}

const goldenWindowCut = 330

func goldenWindowOptions(solver string) WindowedOptions {
	return WindowedOptions{
		K: 4, ChunkPoints: 50, WindowChunks: 4, Restarts: 2, Seed: 91,
		MergeSolver: solver, ResyncEvery: 3,
	}
}

func solverLabel(s string) string {
	if s == "" {
		return "lloyd"
	}
	return s
}

// streamGolden is one run's recorded outputs: named digests and named
// checkpoint files.
type streamGolden struct {
	digests map[string]string
	files   map[string][]byte
}

// pushAll feeds points to push, failing the test on the first error.
func pushAll(t *testing.T, push func([]float64) error, pts [][]float64) {
	t.Helper()
	for _, p := range pts {
		if err := push(p); err != nil {
			t.Fatal(err)
		}
	}
}

// runStreamGoldens runs every case on the current tree.
func runStreamGoldens(t *testing.T) streamGolden {
	t.Helper()
	g := streamGolden{digests: map[string]string{}, files: map[string][]byte{}}
	pts := goldenStream(goldenStreamLong)
	for _, summ := range []string{"kmeans", "ecvq", "coreset"} {
		for _, n := range []int{goldenStreamLong, goldenStreamShort} {
			sc, err := NewStreamClusterer(3, goldenStreamOptions(summ))
			if err != nil {
				t.Fatal(err)
			}
			pushAll(t, sc.Push, pts[:goldenStreamCut])
			if n == goldenStreamLong {
				var buf bytes.Buffer
				if err := sc.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				g.files["stream-"+summ+".skmc"] = buf.Bytes()
			}
			pushAll(t, sc.Push, pts[goldenStreamCut:n])
			res, err := sc.Finish()
			if err != nil {
				t.Fatal(err)
			}
			g.digests[fmt.Sprintf("stream/%s/n=%d", summ, n)] = digest(res)
		}
	}
	for _, solver := range []string{"", "minibatch"} {
		w, err := NewWindowedClusterer(3, goldenWindowOptions(solver))
		if err != nil {
			t.Fatal(err)
		}
		stops := append([]int{goldenWindowCut}, goldenWindowSamples...)
		sort.Ints(stops)
		pos := 0
		for _, at := range stops {
			pushAll(t, w.Push, pts[pos:at])
			pos = at
			if at == goldenWindowCut {
				var buf bytes.Buffer
				if err := w.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				g.files["window-"+solverLabel(solver)+".skmc"] = buf.Bytes()
				continue
			}
			res, err := w.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			g.digests[fmt.Sprintf("window/%s/pos=%d", solverLabel(solver), at)] = digest(res)
		}
		if st := w.SnapshotStats(); solver != "" && (st.Resyncs == 0 || st.WarmStarts == 0) {
			t.Fatalf("minibatch scenario never resynced or warm-started: %+v", st)
		}
	}
	return g
}

func writeStreamGoldens(t *testing.T, g streamGolden) {
	t.Helper()
	if err := os.MkdirAll(streamGoldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(g.digests))
	for name := range g.digests {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, g.digests[name])
	}
	if err := os.WriteFile(filepath.Join(streamGoldenDir, "digests.txt"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, data := range g.files {
		if err := os.WriteFile(filepath.Join(streamGoldenDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join(streamGoldenDir, "digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func readGoldenFile(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(streamGoldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// maskV1 zeroes a v1 checkpoint's accumulated-partial-time field.
func maskV1(data []byte) []byte {
	out := append([]byte(nil), data...)
	clear(out[v1PartialTimeOffset : v1PartialTimeOffset+8])
	return out
}

// TestStreamGoldenAnswers pins StreamClusterer.Finish and
// WindowedClusterer.Snapshot answers to the committed digests.
func TestStreamGoldenAnswers(t *testing.T) {
	got := runStreamGoldens(t)
	if *updateStreamGolden {
		writeStreamGoldens(t, got)
		t.Logf("rewrote %s", streamGoldenDir)
	}
	want := readGoldenDigests(t)
	if len(want) != len(got.digests) {
		t.Fatalf("golden holds %d digests, run produced %d", len(want), len(got.digests))
	}
	for name, sum := range got.digests {
		if want[name] != sum {
			t.Errorf("%s: digest %s, golden %s", name, sum, want[name])
		}
	}
}

// TestStreamGoldenCheckpointBytes pins the SKMC v1 and v2 encodings:
// a fresh run checkpointed at the same position writes the committed
// bytes (v1 with its partial-time field masked).
func TestStreamGoldenCheckpointBytes(t *testing.T) {
	got := runStreamGoldens(t)
	if len(got.files) != 5 {
		t.Fatalf("run produced %d checkpoint files, want 5", len(got.files))
	}
	for name, data := range got.files {
		want := readGoldenFile(t, name)
		if strings.HasPrefix(name, "stream-") {
			data, want = maskV1(data), maskV1(want)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: %d checkpoint bytes differ from the committed %d", name, len(data), len(want))
		}
	}
}

// TestStreamGoldenResume resumes every committed checkpoint and
// requires the continued stream to reproduce the later digests.
func TestStreamGoldenResume(t *testing.T) {
	want := readGoldenDigests(t)
	pts := goldenStream(goldenStreamLong)
	for _, summ := range []string{"kmeans", "ecvq", "coreset"} {
		file := readGoldenFile(t, "stream-"+summ+".skmc")
		for _, n := range []int{goldenStreamLong, goldenStreamShort} {
			sc, err := ResumeStreamClusterer(bytes.NewReader(file), goldenStreamOptions(summ))
			if err != nil {
				t.Fatal(err)
			}
			if sc.Pushed() != goldenStreamCut {
				t.Fatalf("%s: resumed at %d points, want %d", summ, sc.Pushed(), goldenStreamCut)
			}
			pushAll(t, sc.Push, pts[goldenStreamCut:n])
			res, err := sc.Finish()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("stream/%s/n=%d", summ, n)
			if got := digest(res); got != want[name] {
				t.Errorf("resumed %s: digest %s, golden %s", name, got, want[name])
			}
		}
	}
	for _, solver := range []string{"", "minibatch"} {
		file := readGoldenFile(t, "window-"+solverLabel(solver)+".skmc")
		w, err := ResumeWindowedClusterer(bytes.NewReader(file), goldenWindowOptions(solver))
		if err != nil {
			t.Fatal(err)
		}
		pos := goldenWindowCut
		for _, at := range goldenWindowSamples {
			if at < pos {
				continue // sampled before the checkpoint
			}
			pushAll(t, w.Push, pts[pos:at])
			pos = at
			res, err := w.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("window/%s/pos=%d", solverLabel(solver), at)
			if got := digest(res); got != want[name] {
				t.Errorf("resumed %s: digest %s, golden %s", name, got, want[name])
			}
		}
	}
}
