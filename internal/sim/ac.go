package sim

import (
	"fmt"
	"math"

	"repro/internal/lti"
)

// ACPoint is one frequency sample of a transfer-function entry.
type ACPoint struct {
	// Omega is the angular frequency in rad/s.
	Omega float64
	// H is the complex transfer value at jω.
	H complex128
}

// LogGrid returns the logarithmic frequency grid from wMin to wMax with the
// given number of points — the sampling shared by every AC sweep in the
// library. Exposing the grid lets batched evaluators (the serving layer)
// align sweeps from independent requests on identical frequency points, so
// they can share one kernel pass.
// Degenerate inputs have defined behavior: a reversed range (wMin > wMax),
// a non-positive wMin, or points < 1 is a clean error; wMin == wMax is the
// constant grid (every point wMin); points == 1 is allowed only for that
// constant case — a single sample of a non-degenerate log range has no
// canonical position, so it is rejected rather than guessed (and would
// otherwise divide by points−1 = 0).
func LogGrid(wMin, wMax float64, points int) ([]float64, error) {
	if wMin <= 0 || wMax < wMin || points < 1 {
		return nil, fmt.Errorf("sim: bad AC sweep range [%g, %g] × %d", wMin, wMax, points)
	}
	if wMin == wMax {
		grid := make([]float64, points)
		for k := range grid {
			grid[k] = wMin
		}
		return grid, nil
	}
	if points == 1 {
		return nil, fmt.Errorf("sim: a 1-point sweep needs wmin == wmax, got [%g, %g]", wMin, wMax)
	}
	grid := make([]float64, points)
	l0, l1 := math.Log10(wMin), math.Log10(wMax)
	for k := 0; k < points; k++ {
		grid[k] = math.Pow(10, l0+(l1-l0)*float64(k)/float64(points-1))
	}
	return grid, nil
}

// ACSweepEntry evaluates H[row][col](jω) of any system over a logarithmic
// frequency grid from wMin to wMax with the given number of points.
func ACSweepEntry(sys lti.System, row, col int, wMin, wMax float64, points int) ([]ACPoint, error) {
	grid, err := LogGrid(wMin, wMax, points)
	if err != nil {
		return nil, err
	}
	out := make([]ACPoint, points)
	for k, w := range grid {
		h, err := lti.EvalEntry(sys, complex(0, w), row, col)
		if err != nil {
			return nil, fmt.Errorf("sim: AC sweep at ω=%g: %w", w, err)
		}
		out[k] = ACPoint{Omega: w, H: h}
	}
	return out, nil
}

// RelativeError returns |a-b|/|a| pointwise for two sweeps on the same grid,
// the quantity plotted in Fig. 5(b) of the paper.
func RelativeError(ref, approx []ACPoint) ([]float64, error) {
	if len(ref) != len(approx) {
		return nil, fmt.Errorf("sim: sweep length mismatch %d vs %d", len(ref), len(approx))
	}
	errs := make([]float64, len(ref))
	for i := range ref {
		den := cmplxAbs(ref[i].H)
		if den == 0 {
			den = 1
		}
		errs[i] = cmplxAbs(ref[i].H-approx[i].H) / den
	}
	return errs, nil
}

func cmplxAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }
