package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// patternCSC builds an n×n matrix with a nonzero diagonal plus the given
// off-diagonal (row, col) entries, their values varied.
func patternCSC(n int, edges [][2]int) *CSC[float64] {
	c := NewCOO[float64](n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(n+i))
	}
	for k, e := range edges {
		c.Add(e[0], e[1], -1-float64(k%7)/8)
	}
	return c.ToCSC()
}

// symEdges returns each undirected edge in both directions.
func symEdges(edges [][2]int) [][2]int {
	out := make([][2]int, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, [2]int{e[1], e[0]})
	}
	return out
}

// amdEdgeCases are the patterns that stress AMD's special paths: empty and
// singleton matrices, isolated nodes, disconnected components, a dense
// row/column (degree above 10√n), hubs just below and above that
// threshold, complete graphs (every node dense), and unsymmetric patterns.
func amdEdgeCases() map[string]*CSC[float64] {
	cases := map[string]*CSC[float64]{
		"n=0":           NewCOO[float64](0, 0).ToCSC(),
		"n=1":           patternCSC(1, nil),
		"diagonal-only": patternCSC(12, nil),
	}
	comp := [][2]int{{0, 1}, {1, 2}, {2, 0}, {4, 5}, {6, 7}, {7, 8}, {8, 9}}
	cases["disconnected"] = patternCSC(11, symEdges(comp)) // nodes 3 and 10 isolated

	// A path with one node coupled to every other: degree n−1 > 10√n.
	const nd = 300
	var dense [][2]int
	for i := 1; i+1 < nd; i++ {
		dense = append(dense, [2]int{i, i + 1})
	}
	for i := 1; i < nd; i++ {
		dense = append(dense, [2]int{0, i})
	}
	cases["dense-row-col"] = patternCSC(nd, symEdges(dense))
	var denseRowOnly [][2]int
	for i := 1; i < nd; i++ {
		denseRowOnly = append(denseRowOnly, [2]int{nd / 2, i}, [2]int{i, i - 1})
	}
	cases["dense-row-unsym"] = patternCSC(nd, denseRowOnly)

	for _, n := range []int{40, 400} {
		var star [][2]int
		for i := 1; i < n; i++ {
			star = append(star, [2]int{0, i})
		}
		cases[fmt.Sprintf("star-%d", n)] = patternCSC(n, symEdges(star))
	}
	for _, n := range []int{2, 3, 6, 30} {
		var kn [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				kn = append(kn, [2]int{i, j})
			}
		}
		cases[fmt.Sprintf("complete-%d", n)] = patternCSC(n, symEdges(kn))
	}
	// Unsymmetric LU patterns: an upper bidiagonal with a lower arrow, and
	// a random one.
	var arrow [][2]int
	for i := 0; i+1 < 50; i++ {
		arrow = append(arrow, [2]int{i, i + 1}, [2]int{49, i})
	}
	cases["unsym-arrow"] = patternCSC(50, arrow)
	cases["unsym-random"] = randomSquareCSC(rand.New(rand.NewSource(5)), 80, 0.05)
	return cases
}

// TestAMDEdgePatterns checks AMD returns a permutation of the right length
// on every edge pattern, the same one on a second call, and that the
// factorization it orders solves the system.
func TestAMDEdgePatterns(t *testing.T) {
	for name, a := range amdEdgeCases() {
		n, _ := a.Dims()
		p := AMD(a)
		if len(p) != n || !p.IsValid() {
			t.Errorf("%s: AMD = %v, not a permutation of %d", name, p, n)
			continue
		}
		if again := AMD(a.Clone()); !slices.Equal(p, again) {
			t.Errorf("%s: AMD not deterministic: %v then %v", name, p, again)
		}
		if n == 0 {
			continue
		}
		lu, err := FactorLU(a, LUOptions{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if r := solveResidual(t, a, lu, rand.New(rand.NewSource(1))); r > 1e-10 {
			t.Errorf("%s: AMD-ordered LU residual %g", name, r)
		}
	}
}

// TestAMDDeterministicProperty: two calls on the same random pattern give
// the same permutation.
func TestAMDDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSquareCSC(rng, 1+rng.Intn(200), 0.03)
		p := AMD(a)
		return p.IsValid() && slices.Equal(p, AMD(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// orderedFill is the fill of a's Cholesky (symmetric a) or LU factor under
// the symmetric pre-ordering p.
func orderedFill(t *testing.T, a *CSC[float64], p Perm, cholesky bool) int {
	t.Helper()
	ap := a.PermuteSym(p)
	nat := LUOptions{Ordering: OrderNatural}
	if cholesky {
		ch, err := FactorCholesky(ap, nat)
		if err != nil {
			t.Fatal(err)
		}
		return ch.NNZ()
	}
	lu, err := FactorLU(ap, nat)
	if err != nil {
		t.Fatal(err)
	}
	return lu.NNZ()
}

// TestAMDFillWithinOracleOnLaplacians holds AMD's Cholesky and LU fill to
// within 10% of the exact-minimum-degree oracle's on 2D Laplacians.
func TestAMDFillWithinOracleOnLaplacians(t *testing.T) {
	for _, s := range [][2]int{{8, 8}, {20, 20}, {40, 25}, {60, 60}} {
		a := laplacian2D(s[0], s[1], 0.1)
		for _, cholesky := range []bool{true, false} {
			got := orderedFill(t, a, AMD(a), cholesky)
			want := orderedFill(t, a, ExactDegreeAMD(a), cholesky)
			if float64(got) > 1.10*float64(want) {
				t.Errorf("%dx%d (cholesky=%v): AMD fill %d exceeds 1.10× the oracle's %d", s[0], s[1], cholesky, got, want)
			}
		}
	}
}

// TestZeroOptionsSelectAMD pins the zero LUOptions to AMD ordering: the
// fill of FactorCholesky/FactorLU with LUOptions{} equals an explicit
// OrderAMD's and is strictly below OrderNatural's.
func TestZeroOptionsSelectAMD(t *testing.T) {
	a := laplacian2D(30, 30, 0.1)
	type factor func(LUOptions) int
	for name, f := range map[string]factor{
		"cholesky": func(o LUOptions) int {
			ch, err := FactorCholesky(a, o)
			if err != nil {
				t.Fatal(err)
			}
			return ch.NNZ()
		},
		"lu": func(o LUOptions) int {
			lu, err := FactorLU(a, o)
			if err != nil {
				t.Fatal(err)
			}
			return lu.NNZ()
		},
	} {
		zero, amd, nat := f(LUOptions{}), f(LUOptions{Ordering: OrderAMD}), f(LUOptions{Ordering: OrderNatural})
		if zero != amd {
			t.Errorf("%s: LUOptions{} fill %d, explicit OrderAMD %d", name, zero, amd)
		}
		if zero >= nat {
			t.Errorf("%s: LUOptions{} fill %d not below OrderNatural's %d", name, zero, nat)
		}
	}
}

// randomCSCWithZeros returns a random square CSC matrix whose stored
// entries include explicit zeros (which PermuteSym drops, as COO
// compilation does) and negative zeros.
func randomCSCWithZeros[T Scalar](rng *rand.Rand, n int, density float64, gen func() T) *CSC[T] {
	colPtr := make([]int, n+1)
	var rowIdx []int
	var val []T
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if rng.Float64() > density && i != j {
				continue
			}
			rowIdx = append(rowIdx, i)
			switch rng.Intn(8) {
			case 0:
				var zero T
				val = append(val, zero)
			case 1:
				val = append(val, FromFloat[T](math.Copysign(0, -1)))
			default:
				val = append(val, gen())
			}
		}
		colPtr[j+1] = len(rowIdx)
	}
	return NewCSC(n, n, colPtr, rowIdx, val)
}

// TestPermuteSymMatchesCOO pins the direct scatter against the COO round
// trip it replaced, bit for bit, on random float64 and complex128 matrices
// and on a Laplacian pencil, under random, AMD and identity permutations.
func TestPermuteSymMatchesCOO(t *testing.T) {
	check := func(label string, ok bool) {
		t.Helper()
		if !ok {
			t.Errorf("%s: PermuteSym differs from the COO round trip", label)
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Dense columns (beyond insertionSortMax) take PermuteSym's sort path.
		n := 1 + rng.Intn(90)
		density := []float64{0.05, 0.15, 0.7}[rng.Intn(3)]
		a := randomCSCWithZeros(rng, n, density, rng.NormFloat64)
		z := randomCSCWithZeros(rng, n, density, func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) })
		p := Perm(rng.Perm(n))
		return CSCBitsEqual(a.PermuteSym(p), PermuteSymCOO(a, p)) &&
			CSCBitsEqual(z.PermuteSym(p), PermuteSymCOO(z, p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	a := laplacian2D(25, 17, 0.3)
	n, _ := a.Dims()
	z := ToComplex(a.ToCSR()).ToCSC()
	for _, p := range []Perm{AMD(a), IdentityPerm(n), Perm(rand.New(rand.NewSource(2)).Perm(n))} {
		check("laplacian float64", CSCBitsEqual(a.PermuteSym(p), PermuteSymCOO(a, p)))
		check("laplacian complex128", CSCBitsEqual(z.PermuteSym(p), PermuteSymCOO(z, p)))
	}
}

// TestAMDCompactionKeepsOrdering squeezes the quotient graph's elbow room
// to CSparse's minimum (cnz/5 + 2n), which forces the in-place compaction
// to run, and checks the ordering is the one computed with ample room.
func TestAMDCompactionKeepsOrdering(t *testing.T) {
	order := func(a *CSC[float64], tight bool) Perm {
		n, _ := a.Dims()
		w := make([]int, n+1)
		cp, ci, cnz := amdPattern(a, w)
		if tight {
			ci = append(make([]int32, 0, cnz+cnz/5+2*n), ci[:cnz]...)
			ci = ci[:cap(ci)]
		}
		return amdOrder(n, cp, ci, cnz, w)
	}
	mats := []*CSC[float64]{laplacian2D(20, 20, 0.1), laplacian2D(45, 30, 0.1)}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		mats = append(mats, randomSquareCSC(rng, 20+rng.Intn(300), 0.01+0.05*rng.Float64()))
	}
	for i, a := range mats {
		if roomy, tight := order(a, false), order(a, true); !slices.Equal(roomy, tight) {
			t.Errorf("matrix %d: compacted ordering differs from the roomy one", i)
		}
	}
}
