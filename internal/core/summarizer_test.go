package core

import (
	"errors"
	"testing"

	"streamkm/internal/dataset"
	"streamkm/internal/kmeans"
	"streamkm/internal/rng"
)

func TestSummarizerSpecEncodeParseRoundTrip(t *testing.T) {
	cases := []SummarizerSpec{
		{Name: "kmeans"},
		{Name: "kmeans", Params: map[string]string{"k": "40", "restarts": "10"}},
		{Name: "ecvq", Params: map[string]string{"maxk": "80", "lambda": "12.5", "restarts": "3"}},
		{Name: "coreset", Params: map[string]string{"m": "400"}},
	}
	for _, spec := range cases {
		enc := spec.Encode()
		got, err := ParseSummarizerSpec(enc)
		if err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		if got.Encode() != enc {
			t.Fatalf("round trip: %q != %q", got.Encode(), enc)
		}
	}
}

func TestSummarizerSpecFloatParamsBitExact(t *testing.T) {
	// Epsilons and lambdas must survive spec → string → spec with the
	// identical bits, or remote/resumed runs would diverge.
	cfg := ECVQPartialConfig{MaxK: 16, Lambda: 0.1 + 0.2, Epsilon: 1e-9, Restarts: 2}
	s, err := NewECVQSummarizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewSummarizer(mustParseSpec(t, s.Spec().Encode()))
	if err != nil {
		t.Fatal(err)
	}
	got := back.(*ECVQSummarizer).Config()
	if got != cfg {
		t.Fatalf("config round trip: %+v != %+v", got, cfg)
	}
}

func mustParseSpec(t *testing.T, enc string) SummarizerSpec {
	t.Helper()
	spec, err := ParseSummarizerSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestParseSummarizerSpecRejectsMalformed(t *testing.T) {
	for _, enc := range []string{
		"", "(k=1)", "kmeans(k=1", "kmeans(novalue)", "kmeans(=1)",
	} {
		if _, err := ParseSummarizerSpec(enc); err == nil {
			t.Fatalf("%q parsed", enc)
		}
	}
}

func TestNewSummarizerRejectsUnknownOperatorAndParams(t *testing.T) {
	if _, err := NewSummarizer(SummarizerSpec{Name: "birch"}); !errors.Is(err, ErrUnknownSummarizer) {
		t.Fatalf("unknown operator: %v", err)
	}
	if _, err := SummarizerFor("birch", SummarizerOptions{}); !errors.Is(err, ErrUnknownSummarizer) {
		t.Fatalf("unknown operator via SummarizerFor: %v", err)
	}
	// An unconsumed parameter is version skew or a typo — refuse it
	// instead of silently running a different operator than intended.
	// accel=true is what older builds wrote for Hamerly's iteration,
	// whose summaries the kept iteration does not reproduce.
	for _, param := range []string{"bogus", "accel"} {
		spec := SummarizerSpec{Name: "kmeans", Params: map[string]string{"k": "4", "restarts": "1", param: "true"}}
		if _, err := NewSummarizer(spec); !errors.Is(err, ErrUnknownSummarizer) {
			t.Fatalf("unknown param %s accepted: %v", param, err)
		}
	}
	bad := SummarizerSpec{Name: "kmeans", Params: map[string]string{"k": "four", "restarts": "1"}}
	if _, err := NewSummarizer(bad); err == nil {
		t.Fatal("non-numeric k accepted")
	}
}

// roundTripSummarizer encodes a summarizer's spec, parses it back, and
// rebuilds the operator — the journey every chunk spec takes through
// the SKMF wire protocol and the SKMJ journal.
func roundTripSummarizer(t *testing.T, s Summarizer) Summarizer {
	t.Helper()
	back, err := NewSummarizer(mustParseSpec(t, s.Spec().Encode()))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestSummarizersRebuiltFromSpecAreBitIdentical(t *testing.T) {
	chunk := blobCell(t, 5, 300, 11)
	opts := SummarizerOptions{
		Partial:     PartialConfig{K: 5, Restarts: 3, Epsilon: 1e-8},
		CoresetSize: 40,
		ECVQ:        ECVQPartialConfig{MaxK: 12, Lambda: 2.5},
	}
	for _, name := range SummarizerNames() {
		s, err := SummarizerFor(name, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back := roundTripSummarizer(t, s)
		if back.Spec().Encode() != s.Spec().Encode() {
			t.Fatalf("%s: spec drift: %q != %q", name, back.Spec().Encode(), s.Spec().Encode())
		}
		r1, r2 := rng.New(99), rng.New(99)
		a, err := s.Summarize(chunk, r1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := back.Summarize(chunk, r2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameWeightedSets(t, name, a.Centroids, b.Centroids)
	}
}

func assertSameWeightedSets(t *testing.T, label string, a, b *dataset.WeightedSet) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d vs %d summary points", label, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.WeightAt(i) != b.WeightAt(i) {
			t.Fatalf("%s: point %d weight %v != %v", label, i, a.WeightAt(i), b.WeightAt(i))
		}
		av, bv := a.VecAt(i), b.VecAt(i)
		for d := range av {
			if av[d] != bv[d] {
				t.Fatalf("%s: point %d dim %d: %v != %v", label, i, d, av[d], bv[d])
			}
		}
	}
}

func TestKMeansSummarizerMatchesPartialKMeans(t *testing.T) {
	chunk := blobCell(t, 4, 250, 7)
	cfg := PartialConfig{K: 4, Restarts: 3}
	s, err := NewKMeansSummarizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Summarize(chunk, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartialKMeans(chunk, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	assertSameWeightedSets(t, "kmeans", a.Centroids, b.Centroids)
	if a.MSE != b.MSE || a.Iterations != b.Iterations {
		t.Fatalf("stats drift: %+v vs %+v", a, b)
	}
}

// clusterOptionsFor builds pipeline options selecting the named
// summarizer with small, fast parameters.
func clusterOptionsFor(name string) Options {
	return Options{
		K: 5, Restarts: 2, Splits: 4, Seed: 77,
		Summarizer:  name,
		CoresetSize: 40,
		ECVQMaxK:    10,
	}
}

func TestOptionsSeedMethodValidatedAndApplied(t *testing.T) {
	points := blobCell(t, 4, 300, 41)
	bad := clusterOptionsFor(SummarizerKMeans)
	bad.SeedMethod = "voronoi"
	if _, err := Cluster(points, bad); err == nil {
		t.Fatal("unknown seed method accepted")
	}
	opts := clusterOptionsFor(SummarizerKMeans)
	opts.SeedMethod = "kmeans++"
	summ, err := opts.NewSummarizer()
	if err != nil {
		t.Fatal(err)
	}
	if got := summ.Spec().Params["seed"]; got != (kmeans.PlusPlusSeeder{}).Name() {
		t.Fatalf("seed param %q", got)
	}
	if _, err := Cluster(points, opts); err != nil {
		t.Fatal(err)
	}
	// The merge stage picks the method up too (via MergeConfig).
	if s := opts.MergeConfig().Seeder; s == nil || s.Name() != (kmeans.PlusPlusSeeder{}).Name() {
		t.Fatalf("merge seeder not applied: %v", s)
	}
}
