package vector

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOfAndClone(t *testing.T) {
	v := Of(1, 2, 3)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", v.Dim())
	}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone aliases original: v[0] = %g", v[0])
	}
}

func TestZero(t *testing.T) {
	v := Of(1, 2, 3)
	v.Zero()
	for i, x := range v {
		if x != 0 {
			t.Fatalf("v[%d] = %g after Zero", i, x)
		}
	}
}

func TestAddSubScale(t *testing.T) {
	v := Of(1, 2)
	v.Add(Of(3, 4))
	if !v.Equal(Of(4, 6)) {
		t.Fatalf("Add: got %v", v)
	}
	v.Sub(Of(1, 1))
	if !v.Equal(Of(3, 5)) {
		t.Fatalf("Sub: got %v", v)
	}
	v.Scale(2)
	if !v.Equal(Of(6, 10)) {
		t.Fatalf("Scale: got %v", v)
	}
}

func TestAddScaled(t *testing.T) {
	v := Of(1, 1)
	v.AddScaled(0.5, Of(2, 4))
	if !v.Equal(Of(2, 3)) {
		t.Fatalf("AddScaled: got %v", v)
	}
}

func TestDotNorm(t *testing.T) {
	if d := Of(1, 2, 3).Dot(Of(4, 5, 6)); d != 32 {
		t.Fatalf("Dot = %g, want 32", d)
	}
	if n := Of(3, 4).Norm(); n != 5 {
		t.Fatalf("Norm = %g, want 5", n)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"Add", func() { Of(1).Add(Of(1, 2)) }},
		{"Sub", func() { Of(1).Sub(Of(1, 2)) }},
		{"AddScaled", func() { Of(1).AddScaled(1, Of(1, 2)) }},
		{"Dot", func() { Of(1).Dot(Of(1, 2)) }},
		{"CopyFrom", func() { Of(1).CopyFrom(Of(1, 2)) }},
		{"SquaredDistance", func() { SquaredDistance(Of(1), Of(1, 2)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on mismatch", tc.name)
				}
			}()
			tc.f()
		})
	}
}

func TestSquaredDistance(t *testing.T) {
	a, b := Of(0, 0), Of(3, 4)
	if d := SquaredDistance(a, b); d != 25 {
		t.Fatalf("SquaredDistance = %g, want 25", d)
	}
	if d := Distance(a, b); d != 5 {
		t.Fatalf("Distance = %g, want 5", d)
	}
	if d := SquaredDistance(a, a); d != 0 {
		t.Fatalf("self distance = %g, want 0", d)
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]Vector{Of(0, 0), Of(2, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(Of(1, 2)) {
		t.Fatalf("Mean = %v, want [1 2]", m)
	}
	if _, err := Mean(nil); err == nil {
		t.Fatal("Mean(nil) should error")
	}
	if _, err := Mean([]Vector{Of(1), Of(1, 2)}); err == nil {
		t.Fatal("Mean with mixed dims should error")
	}
}

func TestWeightedMean(t *testing.T) {
	m, err := WeightedMean([]Vector{Of(0), Of(10)}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m[0]-7.5) > 1e-12 {
		t.Fatalf("WeightedMean = %v, want 7.5", m)
	}
}

func TestWeightedMeanErrors(t *testing.T) {
	if _, err := WeightedMean(nil, nil); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := WeightedMean([]Vector{Of(1)}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := WeightedMean([]Vector{Of(1)}, []float64{-1}); err == nil {
		t.Fatal("negative weight should error")
	}
	if _, err := WeightedMean([]Vector{Of(1)}, []float64{0}); err == nil {
		t.Fatal("all-zero weights should error")
	}
	if _, err := WeightedMean([]Vector{Of(1), Of(1, 2)}, []float64{1, 1}); err == nil {
		t.Fatal("mixed dims should error")
	}
}

func TestWeightedMeanEqualWeightsMatchesMean(t *testing.T) {
	vs := []Vector{Of(1, 2), Of(3, 4), Of(5, 0)}
	ws := []float64{2, 2, 2}
	wm, err := WeightedMean(vs, ws)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Mean(vs)
	if err != nil {
		t.Fatal(err)
	}
	if !wm.ApproxEqual(m, 1e-12) {
		t.Fatalf("weighted mean %v != mean %v", wm, m)
	}
}

func TestNearestIndex(t *testing.T) {
	cs := []Vector{Of(0, 0), Of(10, 0), Of(0, 10)}
	i, d := NearestIndex(Of(9, 1), cs)
	if i != 1 {
		t.Fatalf("NearestIndex = %d, want 1", i)
	}
	if d != 2 {
		t.Fatalf("distance = %g, want 2", d)
	}
}

func TestNearestIndexPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty centroid set")
		}
	}()
	NearestIndex(Of(1), nil)
}

func TestApproxEqual(t *testing.T) {
	if !Of(1, 2).ApproxEqual(Of(1.0000001, 2), 1e-3) {
		t.Fatal("should be approx equal")
	}
	if Of(1, 2).ApproxEqual(Of(1.1, 2), 1e-3) {
		t.Fatal("should not be approx equal")
	}
	if Of(1).ApproxEqual(Of(1, 2), 1) {
		t.Fatal("different dims are never equal")
	}
}

// Property: distance is symmetric and non-negative, zero iff equal inputs.
func TestSquaredDistanceProperties(t *testing.T) {
	f := func(a, b [6]float64) bool {
		va, vb := Of(a[:]...), Of(b[:]...)
		d1 := SquaredDistance(va, vb)
		d2 := SquaredDistance(vb, va)
		return d1 == d2 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the mean minimizes the sum of squared distances among the
// candidates we test (it is the unique minimizer in R^d, so any perturbed
// point must do at least as badly).
func TestMeanMinimizesSSE(t *testing.T) {
	f := func(pts [5][3]float64, shift [3]float64) bool {
		vs := make([]Vector, len(pts))
		for i := range pts {
			vs[i] = Of(pts[i][:]...)
		}
		m, err := Mean(vs)
		if err != nil {
			return false
		}
		alt := m.Clone()
		alt.Add(Of(shift[:]...))
		var sseM, sseAlt float64
		for _, v := range vs {
			sseM += SquaredDistance(v, m)
			sseAlt += SquaredDistance(v, alt)
		}
		return sseM <= sseAlt+1e-9*math.Max(1, math.Abs(sseAlt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for Euclidean distance.
func TestTriangleInequality(t *testing.T) {
	f := func(a, b, c [4]float64) bool {
		va, vb, vc := Of(a[:]...), Of(b[:]...), Of(c[:]...)
		return Distance(va, vc) <= Distance(va, vb)+Distance(vb, vc)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSquaredDistance6D(b *testing.B) {
	x := Of(1, 2, 3, 4, 5, 6)
	y := Of(6, 5, 4, 3, 2, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SquaredDistance(x, y)
	}
}

func BenchmarkNearestIndex40Centroids(b *testing.B) {
	cs := make([]Vector, 40)
	for i := range cs {
		cs[i] = Of(float64(i), 0, 0, 0, 0, 0)
	}
	x := Of(17.3, 1, 1, 1, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NearestIndex(x, cs)
	}
}

// referenceSquaredDistance is the pre-optimization scalar loop; the
// unrolled and dim-specialized kernels must match it bit for bit.
func referenceSquaredDistance(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

// TestSquaredDistanceBitIdentical pins the flat-kernel contract: every
// specialization (d=2,3,6,8) and the 4-way unrolled generic path produce
// the exact bits of the sequential reference loop.
func TestSquaredDistanceBitIdentical(t *testing.T) {
	gen := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		gen ^= gen << 13
		gen ^= gen >> 7
		gen ^= gen << 17
		return float64(int64(gen)) / (1 << 40)
	}
	for dim := 1; dim <= 17; dim++ {
		for trial := 0; trial < 50; trial++ {
			a := make([]float64, dim)
			b := make([]float64, dim)
			for i := range a {
				a[i], b[i] = next(), next()
			}
			want := referenceSquaredDistance(a, b)
			if got := SquaredDistance(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: SquaredDistance = %x, reference = %x", dim, got, want)
			}
			if got := SquaredDistanceFloats(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: SquaredDistanceFloats = %x, reference = %x", dim, got, want)
			}
		}
	}
}

// TestNearestIndexFlatMatches pins flat-centroid scanning to the
// []Vector implementation: same winning index, same distance bits.
func TestNearestIndexFlatMatches(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4, 6, 8, 11} {
		const k = 13
		flat := make([]float64, k*dim)
		cs := make([]Vector, k)
		for j := 0; j < k; j++ {
			cs[j] = New(dim)
			for d := 0; d < dim; d++ {
				v := float64((j*31+d*17)%23) - 11
				flat[j*dim+d] = v
				cs[j][d] = v
			}
		}
		x := New(dim)
		for d := 0; d < dim; d++ {
			x[d] = float64(d%5) - 2.5
		}
		wi, wd := NearestIndex(x, cs)
		gi, gd := NearestIndexFlat(x, flat, k, dim)
		if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("dim %d: flat (%d, %x) != reference (%d, %x)", dim, gi, gd, wi, wd)
		}
	}
}

func TestNearestIndexFlatPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for k=0")
		}
	}()
	NearestIndexFlat([]float64{1}, nil, 0, 1)
}

func BenchmarkNearestIndexFlat40x6(b *testing.B) {
	const k, dim = 40, 6
	flat := make([]float64, k*dim)
	for i := range flat {
		flat[i] = float64(i % 7)
	}
	x := []float64{17.3, 1, 1, 1, 1, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NearestIndexFlat(x, flat, k, dim)
	}
}

// TestNearestTwoFlatMatchesScan checks the unrolled kernels against the
// one-row-at-a-time scan they replace, bit for bit, over odd and even
// k, exact ties (a coarse integer grid) and non-finite rows.
func TestNearestTwoFlatMatchesScan(t *testing.T) {
	scan := func(x, flat []float64, k, dim int) (int, float64, float64) {
		best, bestD, secondD := 0, math.Inf(1), math.Inf(1)
		for j := 0; j < k; j++ {
			if d := SquaredDistance(x, flat[j*dim:(j+1)*dim]); d < bestD {
				secondD = bestD
				best, bestD = j, d
			} else if d < secondD {
				secondD = d
			}
		}
		return best, bestD, secondD
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e154, -1e154}
	seed := uint64(1)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	for _, dim := range []int{2, 3, 5, 6, 8} {
		for k := 1; k <= 9; k++ {
			for trial := 0; trial < 200; trial++ {
				flat := make([]float64, k*dim)
				x := make([]float64, dim)
				for _, s := range [][]float64{flat, x} {
					for i := range s {
						if r := next() % 64; r < 3 {
							s[i] = specials[next()%uint64(len(specials))]
						} else {
							s[i] = float64(next()%4) - 1.5
						}
					}
				}
				wb, wd, ws := scan(x, flat, k, dim)
				gb, gd, gs := NearestTwoFlat(x, flat, k, dim)
				if gb != wb || math.Float64bits(gd) != math.Float64bits(wd) || math.Float64bits(gs) != math.Float64bits(ws) {
					t.Fatalf("dim %d k %d: got (%d, %v, %v), want (%d, %v, %v)", dim, k, gb, gd, gs, wb, wd, ws)
				}
			}
		}
	}
}
