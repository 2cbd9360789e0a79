package sparse

// Perm is a permutation vector mapping new index to old index: a permuted
// vector y relates to the original x by y[i] = x[p[i]].
type Perm []int

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Inverse returns the inverse permutation q with q[p[i]] = i.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, pi := range p {
		q[pi] = i
	}
	return q
}

// IsValid reports whether p is a bijection on [0, len(p)).
func (p Perm) IsValid() bool {
	seen := make([]bool, len(p))
	for _, pi := range p {
		if pi < 0 || pi >= len(p) || seen[pi] {
			return false
		}
		seen[pi] = true
	}
	return true
}

// ApplyVec stores x permuted by p into dst: dst[i] = x[p[i]].
func ApplyVec[T Scalar](dst []T, p Perm, x []T) {
	if len(dst) != len(p) || len(x) != len(p) {
		panic("sparse: ApplyVec length mismatch")
	}
	for i, pi := range p {
		dst[i] = x[pi]
	}
}

// ApplyVecInv stores x permuted by p⁻¹ into dst: dst[p[i]] = x[i].
func ApplyVecInv[T Scalar](dst []T, p Perm, x []T) {
	if len(dst) != len(p) || len(x) != len(p) {
		panic("sparse: ApplyVecInv length mismatch")
	}
	for i, pi := range p {
		dst[pi] = x[i]
	}
}

// permInt32 returns p with int32 entries, the index width of the packed
// factor layouts. Callers bound len(p) by math.MaxInt32 beforehand.
func permInt32(p Perm) []int32 {
	out := make([]int32, len(p))
	for i, pi := range p {
		out[i] = int32(pi)
	}
	return out
}
