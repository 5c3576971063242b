package bench

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"streamkm/internal/dataset"
)

// tinyWorkload is even smaller than QuickWorkload, for unit tests.
func tinyWorkload() Workload {
	spec := dataset.DefaultCellSpec()
	spec.Clusters = 6
	return Workload{
		Sizes:    []int{200, 600},
		Dim:      4,
		K:        6,
		Restarts: 2,
		Versions: 1,
		Seed:     7,
		Spec:     spec,
	}
}

func TestWorkloadValidate(t *testing.T) {
	good := tinyWorkload()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Sizes = nil
	if bad.validate() == nil {
		t.Fatal("no sizes should error")
	}
	bad = good
	bad.Sizes = []int{0}
	if bad.validate() == nil {
		t.Fatal("zero size should error")
	}
	bad = good
	bad.K = 0
	if bad.validate() == nil {
		t.Fatal("K=0 should error")
	}
}

func TestPaperAndQuickWorkloads(t *testing.T) {
	p := PaperWorkload()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if p.K != 40 || p.Restarts != 10 || p.Versions != 5 || p.Dim != 6 {
		t.Fatalf("paper workload drifted: %+v", p)
	}
	if len(p.Sizes) != 6 || p.Sizes[0] != 250 || p.Sizes[5] != 75000 {
		t.Fatalf("paper sizes drifted: %v", p.Sizes)
	}
	q := QuickWorkload()
	if err := q.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadCellDeterministic(t *testing.T) {
	w := tinyWorkload()
	a, err := w.cell(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.cell(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.At(0).Equal(b.At(0)) {
		t.Fatal("cells not deterministic")
	}
	c, err := w.cell(200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0).Equal(c.At(0)) {
		t.Fatal("versions should differ")
	}
}

func TestRunTable2(t *testing.T) {
	w := tinyWorkload()
	cases := []Case{{Name: "serial", Splits: 0}, {Name: "2split", Splits: 2}}
	rows, err := RunTable2(w, cases)
	if err != nil {
		t.Fatal(err)
	}
	// 2 sizes x 2 cases, except 200/2=100 >= K=6 so all 4 rows present
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.MinMSE <= 0 || r.PointMSE <= 0 {
			t.Fatalf("row %+v has non-positive MSE", r)
		}
		if r.OverallTime <= 0 {
			t.Fatalf("row %+v has no time", r)
		}
		if r.Case == "serial" {
			if r.PartialTime != 0 || r.MergeTime != 0 {
				t.Fatalf("serial row has stage times: %+v", r)
			}
			if r.MinMSE != r.PointMSE {
				t.Fatalf("serial MinMSE should equal PointMSE: %+v", r)
			}
		} else if r.PartialTime <= 0 {
			t.Fatalf("split row missing partial time: %+v", r)
		}
	}
	out := FormatTable2(rows)
	for _, want := range []string{"data pts", "serial", "2split", "overall t"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatTable2 missing %q:\n%s", want, out)
		}
	}
	if _, err := RunTable2(w, nil); err == nil {
		t.Fatal("no cases should error")
	}
}

func TestRunTable2SkipsInfeasibleSplits(t *testing.T) {
	w := tinyWorkload()
	w.Sizes = []int{20} // 20/10 = 2 < K=6 → skipped
	rows, err := RunTable2(w, []Case{{Name: "10split", Splits: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("infeasible case not skipped: %+v", rows)
	}
}

func TestFigureProjections(t *testing.T) {
	rows := []Table2Row{
		{N: 100, Case: "serial", OverallTime: 5e6, MinMSE: 10, PointMSE: 10},
		{N: 100, Case: "5split", OverallTime: 3e6, MinMSE: 7, PointMSE: 9, PartialTime: 2e6},
		{N: 200, Case: "serial", OverallTime: 9e6, MinMSE: 20, PointMSE: 20},
		{N: 200, Case: "5split", OverallTime: 4e6, MinMSE: 8, PointMSE: 11, PartialTime: 3e6},
	}
	f6 := Figure6(rows)
	if len(f6) != 2 {
		t.Fatalf("Figure6 series = %d", len(f6))
	}
	if f6[0].Case != "serial" || len(f6[0].X) != 2 || f6[0].Y[1] != 9 {
		t.Fatalf("Figure6 wrong: %+v", f6[0])
	}
	f7 := Figure7(rows)
	if f7[1].Case != "5split" || f7[1].Y[0] != 7 {
		t.Fatalf("Figure7 wrong: %+v", f7[1])
	}
	f8 := Figure8(rows)
	if len(f8) != 1 || f8[0].Case != "5split" {
		t.Fatalf("Figure8 should only contain split cases: %+v", f8)
	}
	out := FormatFigure("fig", f8)
	if !strings.Contains(out, "# fig") || !strings.Contains(out, "5split") {
		t.Fatalf("FormatFigure wrong:\n%s", out)
	}
}

func TestRunSpeedup(t *testing.T) {
	w := tinyWorkload()
	rows, err := RunSpeedup(context.Background(), w, 600, 4, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Speedup != 1 {
		t.Fatalf("first speedup = %g", rows[0].Speedup)
	}
	// Clone count must not change the answer.
	for _, r := range rows[1:] {
		if r.MergeMSE != rows[0].MergeMSE {
			t.Fatalf("clone count changed MSE: %g vs %g", r.MergeMSE, rows[0].MergeMSE)
		}
	}
	if !strings.Contains(FormatSpeedup(rows), "speedup") {
		t.Fatal("FormatSpeedup missing header")
	}
	if _, err := RunSpeedup(context.Background(), w, 600, 4, nil); err == nil {
		t.Fatal("no clones should error")
	}
}

func TestRunMergeModeAblation(t *testing.T) {
	rows, err := RunMergeModeAblation(tinyWorkload(), 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Variant != "collective" || rows[1].Variant != "incremental" {
		t.Fatalf("rows: %+v", rows)
	}
	for _, r := range rows {
		if r.PointMSE <= 0 {
			t.Fatalf("row %+v", r)
		}
	}
	out := FormatAblation("merge-mode", rows)
	if !strings.Contains(out, "collective") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestRunMergeSeedingAblation(t *testing.T) {
	rows, err := RunMergeSeedingAblation(tinyWorkload(), 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Variant] = true
	}
	for _, want := range []string{"heaviest", "random", "kmeans++"} {
		if !names[want] {
			t.Fatalf("missing variant %q", want)
		}
	}
}

func TestRunPartialSeedingAblation(t *testing.T) {
	rows, err := RunPartialSeedingAblation(tinyWorkload(), 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Variant != "random" || rows[1].Variant != "kmeans++" {
		t.Fatalf("rows: %+v", rows)
	}
	for _, r := range rows {
		if r.PointMSE <= 0 {
			t.Fatalf("row %+v", r)
		}
	}
}

func TestRunSlicingAblation(t *testing.T) {
	rows, err := RunSlicingAblation(tinyWorkload(), 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.PointMSE <= 0 || r.Elapsed <= 0 {
			t.Fatalf("row %+v", r)
		}
	}
}

func TestRunRestartSweep(t *testing.T) {
	w := tinyWorkload()
	rows, err := RunRestartSweep(w, 600, 3, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Restarts != 1 || rows[1].Restarts != 3 {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[1].Elapsed <= rows[0].Elapsed {
		t.Fatalf("more restarts should cost more time: %+v", rows)
	}
	for _, r := range rows {
		if r.PointMSE <= 0 {
			t.Fatalf("row %+v", r)
		}
	}
	if !strings.Contains(FormatRestarts(rows), "restarts") {
		t.Fatal("FormatRestarts missing header")
	}
	if _, err := RunRestartSweep(w, 600, 3, nil); err == nil {
		t.Fatal("no restart counts should error")
	}
	if _, err := RunRestartSweep(w, 600, 3, []int{0}); err == nil {
		t.Fatal("zero restarts should error")
	}
}

func TestRunAgreement(t *testing.T) {
	w := tinyWorkload()
	rows, err := RunAgreement(w, 600)
	if err != nil {
		t.Fatal(err)
	}
	// 600/5=120 and 600/10=60 both >= K=6 → three labelings, 3 pairs.
	if len(rows) != 3 {
		t.Fatalf("got %d rows: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.ARI < -0.5 || r.ARI > 1 {
			t.Fatalf("ARI out of range: %+v", r)
		}
		// On strongly clustered synthetic data all algorithms should
		// agree far above chance.
		if r.ARI < 0.2 {
			t.Fatalf("suspiciously low agreement: %+v", r)
		}
	}
	if !strings.Contains(FormatAgreement(rows), "ARI") {
		t.Fatal("FormatAgreement missing header")
	}
}

func TestRunChunkSizeSweep(t *testing.T) {
	w := tinyWorkload()
	rows, err := RunChunkSizeSweep(w, 600, []int{3, 50, 150, 600})
	if err != nil {
		t.Fatal(err)
	}
	// size 3 < K=6 is skipped
	if len(rows) != 3 {
		t.Fatalf("got %d rows: %+v", len(rows), rows)
	}
	if rows[0].Partitions != 12 || rows[1].Partitions != 4 || rows[2].Partitions != 1 {
		t.Fatalf("partition counts wrong: %+v", rows)
	}
	for _, r := range rows {
		if r.PointMSE <= 0 {
			t.Fatalf("row %+v", r)
		}
	}
	if !strings.Contains(FormatChunkSizes(rows), "chunk (pts)") {
		t.Fatal("FormatChunkSizes missing header")
	}
	if _, err := RunChunkSizeSweep(w, 600, nil); err == nil {
		t.Fatal("no sizes should error")
	}
	if _, err := RunChunkSizeSweep(w, 600, []int{2}); err == nil {
		t.Fatal("all-below-k should error")
	}
}

func TestRunDistributedScaleup(t *testing.T) {
	// Needs a compute-dominated configuration: at a few hundred points
	// per chunk the serialized dispatch link rivals the compute time
	// and extra machines legitimately stop helping.
	rows, err := RunDistributedScaleup(tinyWorkload(), 6000, 8, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Each Run re-measures real compute, so cross-run makespans carry
	// timing noise; Speedup normalizes within a run and is the stable
	// quantity to assert on.
	if rows[0].Speedup > 1.1 {
		t.Fatalf("1-machine speedup %g", rows[0].Speedup)
	}
	if rows[len(rows)-1].Speedup <= rows[0].Speedup {
		t.Fatalf("speedup did not grow with machines: %+v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].MergeMSE != rows[0].MergeMSE {
			t.Fatalf("machine count changed the result: %+v", rows)
		}
	}
	if !strings.Contains(FormatDistributed(rows), "makespan") {
		t.Fatal("FormatDistributed missing header")
	}
	if _, err := RunDistributedScaleup(tinyWorkload(), 600, 4, nil); err == nil {
		t.Fatal("no machine counts should error")
	}
}

func TestRunMemoryProfile(t *testing.T) {
	w := tinyWorkload()
	rows, err := RunMemoryProfile(w, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	byKey := map[string]MemoryRow{}
	for _, r := range rows {
		byKey[r.Case+"/"+itoa(r.N)] = r
		if r.PeakPoints <= 0 || r.PeakBytes != int64(r.PeakPoints)*int64(w.Dim)*8 {
			t.Fatalf("bad row %+v", r)
		}
	}
	// Serial holds N; splits hold strictly less for the larger cell.
	serial := byKey["serial/600"]
	if serial.PeakPoints != 600 || serial.Ratio != 1 {
		t.Fatalf("serial row %+v", serial)
	}
	quad := byKey["4split/600"]
	if quad.PeakPoints >= serial.PeakPoints {
		t.Fatalf("4-split peak %d not below serial %d", quad.PeakPoints, serial.PeakPoints)
	}
	if !strings.Contains(FormatMemory(rows), "peak/N") {
		t.Fatal("FormatMemory missing header")
	}
	if _, err := RunMemoryProfile(w, nil); err == nil {
		t.Fatal("no splits should error")
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func TestRunAccelerationAblation(t *testing.T) {
	w := tinyWorkload()
	rows, err := RunAccelerationAblation(w, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != w.Versions {
		t.Fatalf("%d rows for %d versions", len(rows), w.Versions)
	}
	for _, r := range rows {
		if r.Points != 200 || r.FullScanEvals != int64(r.Iterations+w.Restarts)*200*int64(w.K) {
			t.Fatalf("row shape: %+v", r)
		}
		// The bounds skip most scans once centroids settle.
		if r.DistanceEvals <= 0 || 2*r.DistanceEvals > r.FullScanEvals {
			t.Fatalf("bounded sweep saved less than half: %+v", r)
		}
	}
}

func TestRunECVQAblation(t *testing.T) {
	rows, err := RunECVQAblation(tinyWorkload(), 600, 3, []float64{0.5, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if !strings.HasPrefix(rows[0].Variant, "fixed-k") {
		t.Fatalf("first row should be fixed-k: %+v", rows[0])
	}
	for _, r := range rows {
		if r.PointMSE <= 0 {
			t.Fatalf("row %+v", r)
		}
	}
}

func TestRunBaselines(t *testing.T) {
	rows, err := RunBaselines(context.Background(), tinyWorkload(), 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	algos := map[string]bool{}
	for _, r := range rows {
		algos[r.Algorithm] = true
		if r.PointMSE <= 0 {
			t.Fatalf("%s MSE = %g", r.Algorithm, r.PointMSE)
		}
	}
	for _, want := range []string{"partial/merge(3)", "serial", "birch", "streamls", "methodC", "minibatch"} {
		if !algos[want] {
			t.Fatalf("missing algorithm %q in %v", want, algos)
		}
	}
	if !strings.Contains(FormatBaselines(rows), "birch") {
		t.Fatal("FormatBaselines missing birch")
	}
}
