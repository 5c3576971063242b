// Package streamkm is a Go implementation of the partial/merge k-means
// algorithm of Nittel, Leung and Braverman, "Scaling Clustering
// Algorithms for Massive Data Sets using Data Streams" (ICDE 2004).
//
// Partial/merge k-means clusters data sets of any size under a fixed
// memory budget: the input is divided into partitions ("chunks") that
// each fit in RAM, an ordinary multi-restart k-means reduces every chunk
// to k weighted centroids, and a final weighted k-means over all chunk
// centroids — seeded by the heaviest centroids — produces the overall
// representation. The partial step parallelizes embarrassingly; this
// package runs chunk clusterings on cloned stream operators (goroutines
// connected by bounded queues).
//
// The top-level package is the facade over the full system:
//
//   - Cluster / ClusterContext / ClusterGoverned run partial/merge
//     k-means over an in-memory point set: serially, on the query engine
//     with cloned partial operators, or on the engine under the
//     resource governor. All three return the same answer bit for bit
//     when the partitioning matches (see ClusterGoverned).
//   - StreamClusterer consumes an unbounded stream point by point under
//     a fixed memory budget ("one look" semantics), and
//     WindowedClusterer answers snapshot queries over the stream's W
//     most recent chunks. Both buffer and summarize chunks through one
//     step: chunk i draws the i-th split of the seed's generator, as
//     Cluster's salami slicing does. A summarizer is deterministic, so
//     neither retries a failed chunk; the error surfaces from Push.
//
// Substrates live in internal/ packages: the weighted Lloyd core
// (internal/kmeans), the stream operator engine (internal/stream), the
// Conquest-like query planner (internal/engine), the MISR-like data
// substrate (internal/dataset, internal/grid), compression
// (internal/histogram, internal/ecvq), the baselines the paper compares
// against (internal/baseline), and the paper-exhibit benchmark harness
// (internal/bench) exercised by cmd/benchtables.
package streamkm
