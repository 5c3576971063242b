// Package distsim models the paper's execution environment — a
// shared-nothing network of PCs (four Dell Optiplexes on a Netgear
// gigabit switch, §5.1) — deterministically on one box. Per-job compute
// is measured elsewhere (E7 reads it from the engine's partial-stage
// spans); network costs (per-message latency plus payload bytes over
// bandwidth) are modeled; the makespan is computed by event-driven
// scheduling rather than wall-clock sleeping. This regenerates the §3.4
// option-1 scale-up claim ("clone the partial k-means to as many
// machines as possible ... the data for one data partition has to be
// sent to one machine only") with the §2 message-passing overhead made
// explicit.
package distsim

import "time"

// Job is one schedulable unit of distributed work: its measured (or
// estimated) compute time plus the modeled transfer payloads in each
// direction.
type Job struct {
	// Compute is the job's processing time on whichever worker runs it.
	Compute time.Duration
	// OutBytes is the payload shipped coordinator → worker (the chunk).
	OutBytes int64
	// InBytes is the payload shipped worker → coordinator (the
	// weighted centroids).
	InBytes int64
}

// Timeline is the outcome of scheduling jobs on the modeled cluster.
type Timeline struct {
	// AllArrived is when the last job's result reaches the coordinator —
	// the makespan before any coordinator-side merge.
	AllArrived time.Duration
	// PerMachineBusy is each worker's total compute time.
	PerMachineBusy []time.Duration
	// TransferTime is the total modeled network time (serialized).
	TransferTime time.Duration
	// BytesMoved is the total modeled payload volume.
	BytesMoved int64
	// Messages counts network messages (one out, one back per job).
	Messages int
}

// Schedule runs the event-driven timing model on its own: the
// coordinator dispatches jobs in order over a shared link (sends
// serialize at the coordinator NIC), each worker processes its jobs
// sequentially, and results return as soon as compute finishes. E7
// schedules one measured job set onto every machine count, and the
// loopback distributed runtime's suite compares a real run's makespan
// against the model's prediction for the same job set.
func Schedule(machines int, latency time.Duration, bandwidth float64, jobs []Job) Timeline {
	transfer := func(bytes int64) time.Duration {
		return latency + time.Duration(float64(bytes)/bandwidth*float64(time.Second))
	}
	workerFree := make([]time.Duration, machines)
	linkFree := time.Duration(0)
	tl := Timeline{PerMachineBusy: make([]time.Duration, machines)}
	for _, job := range jobs {
		// Pick the worker that would start the job earliest.
		best := 0
		for m := 1; m < machines; m++ {
			if workerFree[m] < workerFree[best] {
				best = m
			}
		}
		// The job leaves the coordinator when the shared link is free.
		sendDone := linkFree + transfer(job.OutBytes)
		linkFree = sendDone
		start := max(sendDone, workerFree[best])
		finish := start + job.Compute
		workerFree[best] = finish
		tl.PerMachineBusy[best] += job.Compute
		// The result returns immediately after compute (worker NICs are
		// uncontended toward the coordinator in this model).
		if at := finish + transfer(job.InBytes); at > tl.AllArrived {
			tl.AllArrived = at
		}
		tl.BytesMoved += job.OutBytes + job.InBytes
		tl.Messages += 2
		tl.TransferTime += transfer(job.OutBytes) + transfer(job.InBytes)
	}
	return tl
}
