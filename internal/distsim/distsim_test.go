package distsim

import (
	"testing"
	"time"
)

// computeJobs returns n compute-dominated jobs: 10ms of compute each,
// shipping a 48 KB chunk out and 2 KB of centroids back.
func computeJobs(n int) []Job {
	js := make([]Job, n)
	for i := range js {
		js[i] = Job{Compute: 10 * time.Millisecond, OutBytes: 48_000, InBytes: 2_000}
	}
	return js
}

// speedup is makespan(1)/makespan(m) for one job set, as E7 reports it.
func speedup(m int, bandwidth float64, jobs []Job) float64 {
	const latency = 100 * time.Microsecond
	one := Schedule(1, latency, bandwidth, jobs).AllArrived
	return float64(one) / float64(Schedule(m, latency, bandwidth, jobs).AllArrived)
}

func TestMoreMachinesIncreaseSpeedup(t *testing.T) {
	jobs := computeJobs(8)
	if s := speedup(1, 125e6, jobs); s != 1 {
		t.Fatalf("1-machine speedup %g, want 1", s)
	}
	var prev float64
	for _, machines := range []int{1, 2, 4} {
		s := speedup(machines, 125e6, jobs)
		if s <= prev {
			t.Fatalf("machines=%d speedup %g not above previous %g", machines, s, prev)
		}
		prev = s
		// Every job runs exactly once, on one machine.
		tl := Schedule(machines, 100*time.Microsecond, 125e6, jobs)
		var busy time.Duration
		for _, b := range tl.PerMachineBusy {
			busy += b
		}
		if len(tl.PerMachineBusy) != machines || busy != 80*time.Millisecond {
			t.Fatalf("machines=%d: busy %v over %d machines, want 80ms", machines, tl.PerMachineBusy, machines)
		}
	}
}

func TestSpeedupBoundedByMachinesAndChunks(t *testing.T) {
	// More machines than jobs: at most 4 jobs run at once.
	if s := speedup(16, 125e6, computeJobs(4)); s > 4 {
		t.Fatalf("speedup %g exceeds the job-count bound", s)
	}
}

func TestSlowNetworkErodesSpeedup(t *testing.T) {
	jobs := computeJobs(8)
	// 100 KB/s: the serialized dispatch link dominates.
	fast, slow := speedup(4, 125e6, jobs), speedup(4, 1e5, jobs)
	if slow >= fast {
		t.Fatalf("slow network speedup %g not below fast %g", slow, fast)
	}
	fastT := Schedule(4, 100*time.Microsecond, 125e6, jobs).TransferTime
	slowT := Schedule(4, 100*time.Microsecond, 1e5, jobs).TransferTime
	if slowT <= fastT {
		t.Fatalf("transfer time did not grow: %v vs %v", slowT, fastT)
	}
}
