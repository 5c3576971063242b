package kmeans

import (
	"errors"
	"fmt"

	"streamkm/internal/dataset"
	"streamkm/internal/rng"
	"streamkm/internal/vector"
)

// ScalableSeeder implements k-means|| (Bahmani et al., "Scalable
// K-Means++"): instead of k sequential D^2 draws, it oversamples ~l
// candidates per round for a few rounds, weights each candidate by the
// point mass it attracts, and reclusters the small weighted candidate
// set down to k with weighted k-means++. The oversampled candidate set
// covers the data well in O(Rounds) passes, which is what lets the
// partial stage trade its R-restart uniform-seed search for one good
// seed set.
//
// Determinism: Seed consumes the supplied RNG in a single sequential
// scan order regardless of how the caller fans work out afterwards, so
// equal RNG states produce identical seed sets for any Parallel
// configuration (RunRestarts already pre-derives seed sets serially
// before its fan-out).
type ScalableSeeder struct {
	// Rounds is the number of oversampling passes (0 = 5, the paper's
	// "around 5 rounds suffice").
	Rounds int
	// Oversample is the expected number of candidates drawn per round
	// (0 = 2k).
	Oversample float64
	// ReclusterIterations caps the Lloyd iterations of the final
	// candidate reclustering (0 = 100; the candidate set is tiny, so
	// this never dominates).
	ReclusterIterations int
}

// Name implements Seeder.
func (ScalableSeeder) Name() string { return "kmeans||" }

// Seed implements Seeder.
func (s ScalableSeeder) Seed(points *dataset.WeightedSet, k int, r *rng.RNG) ([]vector.Vector, error) {
	if err := checkSeedArgs(points, k); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, errors.New("kmeans: ScalableSeeder requires an RNG")
	}
	rounds := s.Rounds
	if rounds <= 0 {
		rounds = 5
	}
	l := s.Oversample
	if l <= 0 {
		l = 2 * float64(k)
	}
	n := points.Len()

	// First candidate: one weight-proportional draw, as in k-means++.
	first, err := sampleProportional(points, r, nil)
	if err != nil {
		return nil, err
	}
	cand := []int{first}
	chosen := make([]bool, n)
	chosen[first] = true
	// d2[i] tracks squared distance to the nearest chosen candidate.
	d2 := make([]float64, n)
	firstVec := points.At(first).Vec
	for i := 0; i < n; i++ {
		d2[i] = vector.SquaredDistance(points.At(i).Vec, firstVec)
	}

	for round := 0; round < rounds; round++ {
		var phi float64
		for i := 0; i < n; i++ {
			phi += points.At(i).Weight * d2[i]
		}
		if phi <= 0 {
			break // every point coincides with a candidate
		}
		// Independent inclusion with probability min(1, l*w*d^2/phi).
		// Candidates drawn this round do not affect each other's draw
		// probabilities; distances update once in a batch afterwards,
		// exactly as in the paper.
		newFrom := len(cand)
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			p := l * points.At(i).Weight * d2[i] / phi
			if p >= 1 || r.Float64() < p {
				cand = append(cand, i)
				chosen[i] = true
			}
		}
		for _, c := range cand[newFrom:] {
			cv := points.At(c).Vec
			for i := 0; i < n; i++ {
				if d := vector.SquaredDistance(points.At(i).Vec, cv); d < d2[i] {
					d2[i] = d
				}
			}
		}
	}

	// Degenerate data can leave fewer than k candidates; top up with
	// uniform draws over the unchosen points so seeding still succeeds.
	for len(cand) < k {
		i := r.Intn(n)
		for chosen[i] {
			i = (i + 1) % n
		}
		cand = append(cand, i)
		chosen[i] = true
		cv := points.At(i).Vec
		for j := 0; j < n; j++ {
			if d := vector.SquaredDistance(points.At(j).Vec, cv); d < d2[j] {
				d2[j] = d
			}
		}
	}

	seeds := make([]vector.Vector, 0, k)
	if len(cand) == k {
		for _, c := range cand {
			seeds = append(seeds, points.At(c).Vec.Clone())
		}
		return seeds, nil
	}

	// Weight each candidate by the total point mass nearest to it, then
	// recluster the weighted candidates down to k.
	mass := make([]float64, len(cand))
	for i := 0; i < n; i++ {
		v := points.At(i).Vec
		best, bestD := 0, vector.SquaredDistance(v, points.At(cand[0]).Vec)
		for j := 1; j < len(cand); j++ {
			if d := vector.SquaredDistance(v, points.At(cand[j]).Vec); d < bestD {
				best, bestD = j, d
			}
		}
		mass[best] += points.At(i).Weight
	}
	cset, err := dataset.NewWeightedSet(points.Dim())
	if err != nil {
		return nil, err
	}
	cset.Grow(len(cand))
	for j, c := range cand {
		w := mass[j]
		if w <= 0 {
			// A candidate that attracted no mass still participates so
			// the set keeps >= k points; give it a vanishing weight.
			w = 1e-12
		}
		if err := cset.Add(dataset.WeightedPoint{Vec: points.At(c).Vec.Clone(), Weight: w}); err != nil {
			return nil, err
		}
	}
	maxIter := s.ReclusterIterations
	if maxIter <= 0 {
		maxIter = 100
	}
	res, err := Run(cset, Config{K: k, Seeder: PlusPlusSeeder{}, MaxIterations: maxIter}, r)
	if err != nil {
		return nil, fmt.Errorf("kmeans: k-means|| recluster: %w", err)
	}
	for _, c := range res.Centroids {
		seeds = append(seeds, c.Clone())
	}
	if len(seeds) != k {
		return nil, fmt.Errorf("kmeans: k-means|| produced %d seeds, want %d", len(seeds), k)
	}
	return seeds, nil
}

// SeederByName resolves a seed-method name to a Seeder. Names match
// Seeder.Name(): "random", "heaviest", "kmeans++", "kmeans||" (alias
// "scalable"). The empty string resolves to nil, which lets each stage
// keep its historic default (random partial seeds, heaviest-weight
// merge seeds).
func SeederByName(name string) (Seeder, error) {
	switch name {
	case "":
		return nil, nil
	case "random":
		return RandomSeeder{}, nil
	case "heaviest":
		return HeaviestSeeder{}, nil
	case "kmeans++", "plusplus":
		return PlusPlusSeeder{}, nil
	case "kmeans||", "scalable":
		return ScalableSeeder{}, nil
	}
	return nil, fmt.Errorf("kmeans: unknown seed method %q (want random, heaviest, kmeans++, or kmeans||)", name)
}
