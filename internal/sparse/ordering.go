package sparse

import "sort"

// Ordering selects the fill-reducing ordering used to permute a matrix
// before sparse LU factorization.
type Ordering int

const (
	// OrderAMD applies an approximate-minimum-degree ordering on the
	// symmetrized pattern A + Aᵀ. It is the zero value, so every
	// LUOptions{} factors AMD-ordered: the best fill behaviour for the
	// mesh-structured pencils of power grids.
	OrderAMD Ordering = iota
	// OrderNatural factors the matrix as given.
	OrderNatural
	// OrderRCM applies reverse Cuthill–McKee bandwidth reduction. Cheap and
	// effective for mesh-like power grids at moderate sizes.
	OrderRCM
)

func (o Ordering) String() string {
	switch o {
	case OrderNatural:
		return "natural"
	case OrderRCM:
		return "rcm"
	case OrderAMD:
		return "amd"
	}
	return "unknown"
}

// preorder returns the fill-reducing pre-ordering q that o selects and the
// symmetrically permuted matrix A(q, q) the factorizations work on: a
// itself, with the identity, for OrderNatural.
func preorder[T Scalar](a *CSC[T], o Ordering) (Perm, *CSC[T]) {
	n, _ := a.Dims()
	var q Perm
	switch o {
	case OrderAMD:
		q = AMD(a)
	case OrderRCM:
		q = RCM(a)
	default:
		return IdentityPerm(n), a
	}
	return q, a.PermuteSym(q)
}

// symmetrizedAdjacency builds the adjacency structure of the undirected
// graph of A + Aᵀ without self loops, as slice-of-neighbour-lists.
func symmetrizedAdjacency[T Scalar](a *CSC[T]) [][]int32 {
	n, _ := a.Dims()
	deg := make([]int, n)
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			if i != j {
				deg[i]++
				deg[j]++
			}
		}
	}
	adj := make([][]int32, n)
	buf := make([]int32, 0)
	total := 0
	for i := 0; i < n; i++ {
		total += deg[i]
	}
	buf = make([]int32, total)
	pos := 0
	for i := 0; i < n; i++ {
		adj[i] = buf[pos : pos : pos+deg[i]]
		pos += deg[i]
	}
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			if i != j {
				adj[i] = append(adj[i], int32(j))
				adj[j] = append(adj[j], int32(i))
			}
		}
	}
	// Deduplicate neighbour lists (A and Aᵀ overlap on symmetric entries).
	for i := range adj {
		lst := adj[i]
		sort.Slice(lst, func(x, y int) bool { return lst[x] < lst[y] })
		w := 0
		for r := 0; r < len(lst); r++ {
			if w == 0 || lst[r] != lst[w-1] {
				lst[w] = lst[r]
				w++
			}
		}
		adj[i] = lst[:w]
	}
	return adj
}

// RCM computes a reverse Cuthill–McKee ordering of the symmetrized pattern
// of A. The returned permutation maps new index to old index.
func RCM[T Scalar](a *CSC[T]) Perm {
	n, _ := a.Dims()
	adj := symmetrizedAdjacency(a)
	visited := make([]bool, n)
	order := make([]int, 0, n)
	queue := make([]int, 0, n)

	// Process each connected component from a pseudo-peripheral start node.
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(adj, start)
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			// Neighbours in increasing-degree order per Cuthill–McKee.
			nbrs := make([]int, 0, len(adj[v]))
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, int(w))
				}
			}
			sort.Slice(nbrs, func(x, y int) bool { return len(adj[nbrs[x]]) < len(adj[nbrs[y]]) })
			queue = append(queue, nbrs...)
		}
	}
	// Reverse for RCM.
	p := make(Perm, n)
	for i, v := range order {
		p[n-1-i] = v
	}
	return p
}

// pseudoPeripheral locates an approximately peripheral node of the component
// containing start by repeated BFS to the farthest level.
func pseudoPeripheral(adj [][]int32, start int) int {
	level := make([]int, len(adj))
	cur := start
	bestEcc := -1
	for iter := 0; iter < 8; iter++ {
		for i := range level {
			level[i] = -1
		}
		level[cur] = 0
		q := []int{cur}
		last := cur
		ecc := 0
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			for _, w := range adj[v] {
				if level[w] < 0 {
					level[w] = level[v] + 1
					if level[w] > ecc {
						ecc = level[w]
						last = int(w)
					}
					q = append(q, int(w))
				}
			}
		}
		if ecc <= bestEcc {
			break
		}
		bestEcc = ecc
		cur = last
	}
	return cur
}
