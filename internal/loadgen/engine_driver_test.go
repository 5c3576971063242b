package loadgen

import "testing"

// TestEngineDriverChargesDaemonEstimate: the engine driver admits
// sessions against the daemon's own admission estimate for the shape —
// a budget of exactly two estimates admits two sessions, one byte less
// admits one — and refuses a shape whose estimate overflows int64
// instead of wrapping it into an admissible number.
func TestEngineDriverChargesDaemonEstimate(t *testing.T) {
	spec := SessionSpec{Dim: 3, K: 4, ChunkPoints: 64, WindowChunks: 4, Seed: 1}
	cost, ok := spec.SessionConfig(0).AdmissionCost()
	// chunk buffer 64·3·8 plus W+3 = 7 summaries of 4 centroids at 4·8 bytes
	if !ok || cost != 64*3*8+7*4*4*8 {
		t.Fatalf("daemon estimate %d (ok=%t), want %d", cost, ok, 64*3*8+7*4*4*8)
	}
	for _, c := range []struct {
		budget int64
		want   int
	}{{2 * cost, 2}, {2*cost - 1, 1}} {
		d := NewEngineDriver(nil)
		d.MemoryBudget = c.budget
		got, err := d.Open(spec, 5)
		d.Close()
		if err != nil || got != c.want {
			t.Fatalf("budget %d admitted %d (err %v), want %d", c.budget, got, err, c.want)
		}
	}

	huge := spec
	huge.ChunkPoints = 1 << 60
	if _, ok := huge.SessionConfig(0).AdmissionCost(); ok {
		t.Fatal("a 2^60-point chunk buffer fits the daemon's int64 estimate")
	}
	d := NewEngineDriver(nil)
	defer d.Close()
	d.MemoryBudget = 1 << 20
	if got, err := d.Open(huge, 1); err == nil || got != 0 {
		t.Fatalf("overflowing shape admitted %d sessions (err %v), want a refusal", got, err)
	}
}
