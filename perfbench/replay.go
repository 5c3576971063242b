package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"

	"streamkm"
)

// check replays every stream through the library clusterer the daemon
// hosts, with the session's options, and compares each recorded answer
// with the library's at the same stream position. It reports whether
// every answer matched. Streams replay in parallel, one per CPU, after
// the daemon has stopped.
func (b *bench) check() bool {
	ok := true
	answers := map[int][]answerRec{}
	for _, c := range b.clients {
		if c.err != nil {
			ok = false // a failed request leaves its stream position unknown
			continue
		}
		for _, a := range c.answers {
			answers[a.stream] = append(answers[a.stream], a)
		}
	}
	var streams []int
	for s := range answers {
		streams = append(streams, s)
	}
	sort.Ints(streams)

	var mu sync.Mutex
	work := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				if err := b.replayStream(s, answers[s]); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: stream %d: %v\n", s, err)
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
		}()
	}
	for _, s := range streams {
		work <- s
	}
	close(work)
	wg.Wait()
	return ok
}

// replayStream pushes stream s's batches, in the order the daemon
// acknowledged them, up to the last recorded answer's position, and
// checks every answer. Windowed streams are compared with Snapshot at
// each answered position; a cell is compared once, after Finish (every
// job on the same cell must give the same answer).
func (b *bench) replayStream(s int, answers []answerRec) error {
	w := b.w
	var push func([]float64) error
	var answer func() (*streamkm.Result, error)
	if w.kind == "windowed" {
		win, err := streamkm.NewWindowedClusterer(w.corpus.Dim, streamkm.WindowedOptions{
			K: w.k, ChunkPoints: w.chunk, WindowChunks: w.windowChunks, Restarts: w.restarts, Seed: b.sessionSeed(s),
		})
		if err != nil {
			return err
		}
		push, answer = win.Push, win.Snapshot
	} else {
		str, err := streamkm.NewStreamClusterer(w.corpus.Dim, streamkm.Options{
			K: w.k, ChunkPoints: w.chunk, Restarts: w.restarts, Seed: b.sessionSeed(s),
		})
		if err != nil {
			return err
		}
		push, answer = str.Push, str.Finish
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].pos < answers[j].pos })
	st := b.streams[s]
	consumed := 0
	for pos := 0; len(answers) > 0; pos++ {
		for _, p := range st.batches[pos%len(st.batches)] {
			if err := push(p); err != nil {
				return err
			}
			consumed++
		}
		if answers[0].pos != pos+1 {
			continue
		}
		res, err := answer()
		if err != nil {
			return err
		}
		for len(answers) > 0 && answers[0].pos == pos+1 {
			if err := sameAnswer(answers[0].body, res, consumed); err != nil {
				return fmt.Errorf("answer after %d points: %w", consumed, err)
			}
			answers = answers[1:]
		}
	}
	return nil
}

// sameAnswer checks a daemon answer (a ClustersResult document) against
// the library's result bit for bit: JSON carries float64 exactly.
func sameAnswer(body []byte, res *streamkm.Result, consumed int) error {
	var a struct {
		Consumed   int         `json:"consumed"`
		Partitions int         `json:"partitions"`
		MergeMSE   float64     `json:"merge_mse"`
		Weights    []float64   `json:"weights"`
		Centroids  [][]float64 `json:"centroids"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	switch {
	case a.Consumed != consumed:
		return fmt.Errorf("daemon consumed %d points, want %d", a.Consumed, consumed)
	case a.Partitions != res.Partitions:
		return fmt.Errorf("daemon merged %d partitions, library %d", a.Partitions, res.Partitions)
	case !sameFloats([]float64{a.MergeMSE}, []float64{res.MergeMSE}) || !sameFloats(a.Weights, res.Weights):
		return fmt.Errorf("daemon MSE/weights %v/%v, library %v/%v", a.MergeMSE, a.Weights, res.MergeMSE, res.Weights)
	case len(a.Centroids) != len(res.Centroids):
		return fmt.Errorf("daemon returned %d centroids, library %d", len(a.Centroids), len(res.Centroids))
	}
	for i := range a.Centroids {
		if !sameFloats(a.Centroids[i], res.Centroids[i]) {
			return fmt.Errorf("centroid %d: daemon %v, library %v", i, a.Centroids[i], res.Centroids[i])
		}
	}
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
