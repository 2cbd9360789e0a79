package serve

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/sim"
)

// TestModalMatchesFactoredAcrossBenchmarks is the acceptance property: on
// every shipped grid benchmark (RLC and RC-only), the modal evaluation must
// agree with the factored (LU) evaluation to ≤1e-9 relative error over the
// standard log frequency grid. It also pins the traffic assumption behind
// serving every model from its modal form: no shipped benchmark leaves a
// block on the LU fallback.
func TestModalMatchesFactoredAcrossBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every benchmark")
	}
	repo := NewRepository(0)
	for _, name := range grid.Names() {
		for _, rcOnly := range []bool{false, true} {
			name, rcOnly := name, rcOnly
			label := name
			if rcOnly {
				label += "-rc"
			}
			t.Run(label, func(t *testing.T) {
				scale := 0.05
				if name == grid.Ckt1 {
					scale = 0.15 // ckt1 is small; keep a few dozen ports
				}
				m, _, err := repo.Get(ModelKey{Benchmark: name, Scale: scale, RCOnly: rcOnly})
				if err != nil {
					t.Fatalf("building %s: %v", label, err)
				}
				ms, err := m.ROM.Modalize()
				if err != nil {
					t.Fatalf("Modalize: %v", err)
				}
				modal, fb := ms.ModalCount()
				if fb != 0 {
					t.Errorf("%s: %d of %d blocks fell back to LU", label, fb, modal+fb)
				}
				omegas, err := sim.LogGrid(DefaultWMin, DefaultWMax, 25)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range omegas {
					s := complex(0, w)
					want, err := m.ROM.Eval(s)
					if err != nil {
						t.Fatalf("factored Eval(ω=%g): %v", w, err)
					}
					got, err := ms.Eval(s)
					if err != nil {
						t.Fatalf("modal Eval(ω=%g): %v", w, err)
					}
					var num, den float64
					for i := range want.Data {
						d := got.Data[i] - want.Data[i]
						num += real(d)*real(d) + imag(d)*imag(d)
						v := want.Data[i]
						den += real(v)*real(v) + imag(v)*imag(v)
					}
					if den == 0 {
						den = 1
					}
					if rel := math.Sqrt(num / den); rel > 1e-9 {
						t.Fatalf("%s ω=%g: modal vs factored relative error %.3e > 1e-9", label, w, rel)
					}
				}
			})
		}
	}
}
