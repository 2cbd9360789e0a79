package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The packed triangular solves promise bit-identical results to the CSC
// column loops of OracleCholeskySolve/OracleLUSolve. These properties pin
// that on random factors of every ordering, on right-hand sides with exact
// zeros (which take the zero-skip branch), and with dst aliasing b.

// bitsEqual reports the first index where got and want differ in their
// IEEE-754 bit patterns, or -1.
func bitsEqual[T Scalar](got, want []T) int {
	for i := range want {
		switch g := any(got[i]).(type) {
		case float64:
			if math.Float64bits(g) != math.Float64bits(any(want[i]).(float64)) {
				return i
			}
		case complex128:
			w := any(want[i]).(complex128)
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				return i
			}
		}
	}
	return -1
}

// rhsSet returns right-hand sides for a system of dimension n: a dense
// random vector, the same with about a third of its entries zeroed, a unit
// vector, and the zero vector. gen draws one random entry.
func rhsSet[T Scalar](rng *rand.Rand, n int, gen func() T) [][]T {
	dense := make([]T, n)
	sparse := make([]T, n)
	for i := range dense {
		dense[i] = gen()
		if rng.Intn(3) > 0 {
			sparse[i] = dense[i]
		}
	}
	unit := make([]T, n)
	unit[rng.Intn(n)] = FromFloat[T](1)
	return [][]T{dense, sparse, unit, make([]T, n)}
}

// checkBitExact solves every b in rhs with solveBuf, both out of place and
// in place, and compares both against oracle bit for bit.
func checkBitExact[T Scalar](t *testing.T, label string, rhs [][]T, solveBuf func(dst, b, w []T), oracle func(dst, b []T)) bool {
	t.Helper()
	for k, b := range rhs {
		n := len(b)
		want := make([]T, n)
		oracle(want, b)
		w := make([]T, n)
		got := make([]T, n)
		solveBuf(got, b, w)
		if i := bitsEqual(got, want); i >= 0 {
			t.Errorf("%s rhs %d: entry %d = %v, oracle %v", label, k, i, got[i], want[i])
			return false
		}
		inPlace := append([]T(nil), b...)
		solveBuf(inPlace, inPlace, w)
		if i := bitsEqual(inPlace, want); i >= 0 {
			t.Errorf("%s rhs %d (dst aliases b): entry %d = %v, oracle %v", label, k, i, inPlace[i], want[i])
			return false
		}
	}
	return true
}

var allOrderings = []Ordering{OrderNatural, OrderRCM, OrderAMD}

// randomSPDCSC returns a random symmetric matrix made SPD by strict
// diagonal dominance: each diagonal entry exceeds the absolute sum of its
// row's off-diagonal entries.
func randomSPDCSC(rng *rand.Rand, n int) *CSC[float64] {
	c := NewCOO[float64](n, n)
	diag := make([]float64, n)
	for k := 0; k < 3*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := rng.NormFloat64()
		c.Add(i, j, v)
		c.Add(j, i, v)
		diag[i] += math.Abs(v)
		diag[j] += math.Abs(v)
	}
	for i, d := range diag {
		c.Add(i, i, d+0.5+rng.Float64())
	}
	return c.ToCSC()
}

func TestCholeskySolveBufBitExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		a := randomSPDCSC(rng, n)
		rhs := rhsSet(rng, n, rng.NormFloat64)
		for _, ord := range allOrderings {
			ch, err := FactorCholesky(a, LUOptions{Ordering: ord})
			if err != nil {
				t.Errorf("%v: %v", ord, err)
				return false
			}
			oracle := func(dst, b []float64) { OracleCholeskySolve(ch, dst, b) }
			if !checkBitExact(t, ord.String(), rhs, ch.SolveBuf, oracle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLUSolveBufBitExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		a := randomSquareCSC(rng, n, 0.1)
		rhs := rhsSet(rng, n, rng.NormFloat64)
		for _, ord := range allOrderings {
			lu, err := FactorLU(a, LUOptions{Ordering: ord})
			if err != nil {
				t.Errorf("%v: %v", ord, err)
				return false
			}
			oracle := func(dst, b []float64) { OracleLUSolve(lu, dst, b) }
			if !checkBitExact(t, ord.String(), rhs, lu.SolveBuf, oracle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestComplexLUSolveBufBitExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		c := NewCOO[complex128](n, n)
		for i := 0; i < n; i++ {
			c.Add(i, i, complex(4+rng.Float64(), rng.NormFloat64()))
		}
		for k := 0; k < n*n/10; k++ {
			c.Add(rng.Intn(n), rng.Intn(n), complex(rng.NormFloat64(), rng.NormFloat64()))
		}
		a := c.ToCSC()
		gen := func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }
		rhs := rhsSet(rng, n, gen)
		for _, ord := range allOrderings {
			lu, err := FactorLU(a, LUOptions{Ordering: ord})
			if err != nil {
				t.Errorf("%v: %v", ord, err)
				return false
			}
			oracle := func(dst, b []complex128) { OracleLUSolve(lu, dst, b) }
			if !checkBitExact(t, ord.String(), rhs, lu.SolveBuf, oracle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
