package bench

import "testing"

// TestScaleRecord runs a small ladder and checks every rung records the
// pencil factor's fill and the Ward stage stays exact.
func TestScaleRecord(t *testing.T) {
	res, err := Scale(Config{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rungs) != 4 {
		t.Fatalf("%d rungs, want 4", len(res.Rungs))
	}
	for _, r := range res.Rungs {
		if r.FactorNNZ < r.Kept {
			t.Errorf("%d-node rung: factor_nnz %d below the %d kept states", r.Nodes, r.FactorNNZ, r.Kept)
		}
	}
	if res.WardMaxError > WardTolerance {
		t.Errorf("ward error %g above %g", res.WardMaxError, WardTolerance)
	}
}
