// Package krylov implements the Krylov-subspace projection machinery shared
// by all reduction schemes in this library: a pencil operator abstraction
// A = (s0·C - G)⁻¹C backed by either a direct sparse LU factorization or an
// iterative solver, and a block Arnoldi process with deflation.
//
// The two backends mirror the paper's experimental setup: the LU-backed
// operator is the fast path, while the iterative backend reproduces the
// "factorization is skipped … to save memory" regime used for the largest
// benchmarks (ckt3–ckt5).
package krylov

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/dense"
	"repro/internal/lti"
	"repro/internal/sparse"
)

// Backend selects how the pencil (s0·C - G) is inverted.
type Backend int

const (
	// BackendLU factors the pencil once with sparse LU (default).
	BackendLU Backend = iota
	// BackendIterative solves with Jacobi-preconditioned BiCGStab,
	// trading time for memory on very large grids.
	BackendIterative
	// BackendCholesky factors the pencil with sparse Cholesky — roughly
	// half the work and fill of LU. Valid only for symmetric positive
	// definite pencils (RC-only grids, no inductors); construction fails
	// otherwise.
	BackendCholesky
	// BackendAuto picks Cholesky when the pencil is symmetric positive
	// definite and LU otherwise.
	BackendAuto
)

func (b Backend) String() string {
	switch b {
	case BackendLU:
		return "lu"
	case BackendIterative:
		return "bicgstab"
	case BackendCholesky:
		return "cholesky"
	case BackendAuto:
		return "auto"
	}
	return "unknown"
}

// OperatorOptions configures construction of a pencil operator.
type OperatorOptions struct {
	// Backend selects direct or iterative solves. Default BackendLU.
	Backend Backend
	// LU configures the direct backend; the zero value is AMD-ordered.
	LU sparse.LUOptions
	// Iter configures the iterative backend.
	Iter sparse.IterOptions
}

// Operator applies A = (s0·C - G)⁻¹ C and exposes the underlying pencil
// solve. It also counts solves for cost accounting. The Operator itself is
// not safe for concurrent use; obtain per-goroutine views with Worker.
type Operator struct {
	sys    *lti.SparseSystem
	s0     float64
	direct bufSolver              // the factorization; nil for the iterative backend
	solver sparse.Solver[float64] // the iterative backend; nil for direct ones
	buf, w []float64              // Apply's C·x and the direct solve scratch
	solves atomic.Int64
	// FactorNNZ is the direct-factor fill (0 for the iterative backend).
	FactorNNZ int
	// UsedBackend is the backend actually selected (relevant for
	// BackendAuto).
	UsedBackend Backend
}

// bufSolver is a direct factorization (sparse.Cholesky or sparse.LU) that
// solves with caller-provided scratch instead of allocating per call.
type bufSolver interface {
	SolveBuf(dst, b, w []float64)
}

// NewOperator builds the expansion-point operator for sys at s0. The pencil
// s0·C - G is assembled exactly once, in sparse form, and shared by the
// symmetry probe and the chosen factorization — on million-node grids the
// assembly itself is a measurable fraction of factor time, so it is never
// repeated. No dense n×n intermediate is formed on any path.
func NewOperator(sys *lti.SparseSystem, s0 float64, opts OperatorOptions) (*Operator, error) {
	n, _, _ := sys.Dims()
	op := &Operator{sys: sys, s0: s0, buf: make([]float64, n), w: make([]float64, n), UsedBackend: opts.Backend}
	pencil := sys.C.Add(s0, sys.G, -1)
	backend := opts.Backend
	auto := backend == BackendAuto
	if auto {
		// Symmetric pencils get Cholesky first; an indefinite one (possible
		// even for symmetric RLC formulations) falls back to LU below
		// instead of failing construction.
		if sparse.IsSymmetric(pencil, 1e-12) {
			backend = BackendCholesky
		} else {
			backend = BackendLU
		}
		op.UsedBackend = backend
	}
	if backend == BackendCholesky {
		ch, err := sparse.FactorCholesky(pencil.ToCSC(), opts.LU)
		switch {
		case err == nil:
			op.direct = ch
			op.FactorNNZ = ch.NNZ()
			return op, nil
		case auto && errors.Is(err, sparse.ErrNotSPD):
			backend = BackendLU
			op.UsedBackend = BackendLU
		default:
			return nil, fmt.Errorf("krylov: Cholesky-factoring pencil at s0=%g: %w", s0, err)
		}
	}
	switch backend {
	case BackendLU:
		lu, err := sparse.FactorLU(pencil.ToCSC(), opts.LU)
		if err != nil {
			return nil, fmt.Errorf("krylov: factoring pencil at s0=%g: %w", s0, err)
		}
		op.direct = lu
		op.FactorNNZ = lu.NNZ()
	case BackendIterative:
		it, err := sparse.NewBiCGStab(pencil, opts.Iter)
		if err != nil {
			return nil, fmt.Errorf("krylov: building iterative solver: %w", err)
		}
		op.solver = it
	default:
		return nil, fmt.Errorf("krylov: unknown backend %v", opts.Backend)
	}
	return op, nil
}

// N returns the state dimension.
func (op *Operator) N() int { n, _, _ := op.sys.Dims(); return n }

// S0 returns the expansion point.
func (op *Operator) S0() float64 { return op.s0 }

// System returns the underlying descriptor system.
func (op *Operator) System() *lti.SparseSystem { return op.sys }

// Solves reports how many pencil solves were performed through this
// operator and all of its workers.
func (op *Operator) Solves() int { return int(op.solves.Load()) }

// SolvePencil computes dst = (s0·C - G)⁻¹ b. dst and b may alias.
func (op *Operator) SolvePencil(dst, b []float64) error {
	return op.solve(dst, b, op.w)
}

// Apply computes dst = (s0·C - G)⁻¹ C x. dst and x may alias.
func (op *Operator) Apply(dst, x []float64) error {
	op.sys.C.MatVec(op.buf, x)
	return op.solve(dst, op.buf, op.w)
}

// solve is the one pencil-solve dispatch behind the Operator and every
// Worker: direct backends solve with the caller's scratch w, the iterative
// backend with its own. Each call counts one solve.
func (op *Operator) solve(dst, b, w []float64) error {
	op.solves.Add(1)
	if op.direct != nil {
		op.direct.SolveBuf(dst, b, w)
		return nil
	}
	return op.solver.Solve(dst, b)
}

// Worker returns a view of the operator that is safe to use concurrently
// with other workers: it shares the factorization (read-only) but owns its
// scratch buffers. Solve counts are merged into the parent atomically.
func (op *Operator) Worker() *Worker {
	n := op.N()
	return &Worker{op: op, buf: make([]float64, n), w: make([]float64, n)}
}

// Worker is a goroutine-local view of an Operator. Each worker may be used
// by one goroutine at a time.
type Worker struct {
	op     *Operator
	buf, w []float64
}

// SolvePencil computes dst = (s0·C - G)⁻¹ b. dst and b may alias.
func (wk *Worker) SolvePencil(dst, b []float64) error {
	return wk.op.solve(dst, b, wk.w)
}

// Apply computes dst = (s0·C - G)⁻¹ C x. dst and x may alias.
func (wk *Worker) Apply(dst, x []float64) error {
	wk.op.sys.C.MatVec(wk.buf, x)
	return wk.SolvePencil(dst, wk.buf)
}

// StartColumn returns r = (s0·C - G)⁻¹ bⱼ.
func (wk *Worker) StartColumn(j int) ([]float64, error) {
	r := wk.op.sys.BColumn(j)
	if err := wk.SolvePencil(r, r); err != nil {
		return nil, fmt.Errorf("krylov: start column %d: %w", j, err)
	}
	return r, nil
}

// StartBlock returns R = (s0·C - G)⁻¹ B as dense columns — the first block
// of every Krylov recurrence (eq. 4/10 of the paper).
func (op *Operator) StartBlock() ([][]float64, error) {
	_, m, _ := op.sys.Dims()
	r := make([][]float64, m)
	for j := 0; j < m; j++ {
		r[j] = op.sys.BColumn(j)
		if err := op.SolvePencil(r[j], r[j]); err != nil {
			return nil, fmt.Errorf("krylov: start block column %d: %w", j, err)
		}
	}
	return r, nil
}

// StartColumn returns r = (s0·C - G)⁻¹ bⱼ for a single input column.
func (op *Operator) StartColumn(j int) ([]float64, error) {
	r := op.sys.BColumn(j)
	if err := op.SolvePencil(r, r); err != nil {
		return nil, fmt.Errorf("krylov: start column %d: %w", j, err)
	}
	return r, nil
}

// ErrEmptyBasis is returned when Arnoldi deflates every candidate vector —
// e.g. a zero input matrix.
var ErrEmptyBasis = errors.New("krylov: all candidate vectors deflated; empty basis")

// BlockArnoldi builds an orthonormal basis of the block Krylov subspace
// K_l(A, R) = span{R, AR, …, A^{l-1}R} with modified Gram–Schmidt and
// deflation, following the PRIMA construction: each new block is A applied
// to the previously orthonormalized block. Deflated directions stop
// propagating. The result spans at most l·len(r) columns.
func BlockArnoldi(op *Operator, r [][]float64, l int, stats *dense.OrthoStats) (*dense.Basis[float64], error) {
	if l < 1 {
		return nil, fmt.Errorf("krylov: moment count l must be ≥ 1, got %d", l)
	}
	basis := dense.NewBasis[float64](op.N(), stats)
	// Current block: indices into basis columns accepted in the last round.
	var cur []int
	for _, col := range r {
		if basis.Append(col) {
			cur = append(cur, basis.Len()-1)
		}
	}
	if basis.Len() == 0 {
		return nil, ErrEmptyBasis
	}
	w := make([]float64, op.N())
	for j := 1; j < l && len(cur) > 0; j++ {
		var next []int
		for _, idx := range cur {
			if err := op.Apply(w, basis.Col(idx)); err != nil {
				return nil, fmt.Errorf("krylov: Arnoldi step %d: %w", j, err)
			}
			if basis.Append(w) {
				next = append(next, basis.Len()-1)
			}
		}
		cur = next
	}
	return basis, nil
}

// Arnoldi is single-vector BlockArnoldi: K_l(A, r).
func Arnoldi(op *Operator, r []float64, l int, stats *dense.OrthoStats) (*dense.Basis[float64], error) {
	return BlockArnoldi(op, [][]float64{r}, l, stats)
}
