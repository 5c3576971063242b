package kmeans

import (
	"sync"
)

// This file implements §3.4's third parallelization option: breaking the
// k-means operator into finer-grained pieces and parallelizing the
// expensive one — "within the partial k-means, the SortDataPoint
// [assignment] is the most expensive operation, and could be
// parallelized". Each Lloyd iteration's assignment + partial-sum pass is
// sharded across a persistent worker pool and reduced exactly (segment
// order is fixed, so results are deterministic for a given worker count;
// across different worker counts results agree up to floating-point
// summation order). The pool and its shard slabs live for the whole run
// — workers are started once and signalled per sweep, so the steady
// state neither spawns goroutines nor allocates.

// assignShard is one worker's partial reduction of one sweep.
type assignShard struct {
	counts  []int
	weights []float64
	sums    []float64 // k*dim, flat
	sse     float64
	evals   int64
}

// assignPool is a persistent pool of assignment workers. Sweep inputs
// are published into the struct fields before the per-worker start
// signal; the channel send/receive pair provides the happens-before
// edge, and wg.Wait orders every shard write before the reduction.
type assignPool struct {
	w, n, k, dim int
	shards       []assignShard
	start        []chan struct{}
	wg           sync.WaitGroup
	quit         chan struct{}

	// per-sweep inputs: the scratch whose per-point step the workers
	// run, and the points
	sc        *scratch
	data, wts []float64
}

func newAssignPool(w, n, k, dim int) *assignPool {
	p := &assignPool{
		w: w, n: n, k: k, dim: dim,
		shards: make([]assignShard, w),
		start:  make([]chan struct{}, w),
		quit:   make(chan struct{}),
	}
	for s := 0; s < w; s++ {
		p.shards[s] = assignShard{
			counts:  make([]int, k),
			weights: make([]float64, k),
			sums:    make([]float64, k*dim),
		}
		p.start[s] = make(chan struct{})
		go p.worker(s)
	}
	return p
}

// worker processes the fixed segment [n*s/w, n*(s+1)/w) on every sweep
// — the same segment bounds as the pre-pool implementation, so the
// reduction sees identical shard contents.
func (p *assignPool) worker(s int) {
	lo := p.n * s / p.w
	hi := p.n * (s + 1) / p.w
	for {
		select {
		case <-p.quit:
			return
		case <-p.start[s]:
		}
		sh := &p.shards[s]
		sc := p.sc
		k, dim := p.k, p.dim
		for j := 0; j < k; j++ {
			sh.counts[j] = 0
			sh.weights[j] = 0
		}
		zeroFloats(sh.sums)
		sh.sse = 0
		sh.evals = 0
		for i := lo; i < hi; i++ {
			off := i * dim
			x := p.data[off : off+dim : off+dim]
			j, d, e := sc.nearest(i, x)
			sh.evals += int64(e)
			sc.assign[i] = j
			sc.dists[i] = d
			w := p.wts[i]
			sh.counts[j]++
			sh.weights[j] += w
			row := sh.sums[j*dim : (j+1)*dim]
			for t, xv := range x {
				row[t] += w * xv
			}
			sh.sse += d * w
		}
		p.wg.Done()
	}
}

// sweep runs one sharded assignment pass of sc's per-point step and
// blocks until every worker has filled its shard.
func (p *assignPool) sweep(sc *scratch, data, wts []float64) {
	p.sc, p.data, p.wts = sc, data, wts
	p.wg.Add(p.w)
	for s := 0; s < p.w; s++ {
		p.start[s] <- struct{}{}
	}
	p.wg.Wait()
}

// stop terminates the workers. The pool must not be swept afterwards.
func (p *assignPool) stop() {
	close(p.quit)
}
