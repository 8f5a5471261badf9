package graph

import (
	"fmt"
	"math"
	"sync"

	"diffusearch/internal/vecmath"
)

// Normalization selects how the adjacency matrix is turned into the
// transition matrix A of eq. (5) ("a suitable normalization of the
// adjacency matrix"). The choice is an ablation axis of the reproduction.
type Normalization int

const (
	// ColumnStochastic sets A[u][v] = 1/deg(v): the random-walk transition
	// matrix. Diffusion mass is conserved and each node only needs its
	// neighbours' degrees, so this is the default for the decentralized
	// implementation.
	ColumnStochastic Normalization = iota + 1
	// RowStochastic sets A[u][v] = 1/deg(u): each node averages its
	// neighbours' values.
	RowStochastic
	// Symmetric sets A[u][v] = 1/sqrt(deg(u)*deg(v)), the normalization
	// used by graph convolution networks.
	Symmetric
)

// String implements fmt.Stringer.
func (n Normalization) String() string {
	switch n {
	case ColumnStochastic:
		return "column-stochastic"
	case RowStochastic:
		return "row-stochastic"
	case Symmetric:
		return "symmetric"
	default:
		return fmt.Sprintf("Normalization(%d)", int(n))
	}
}

// Valid reports whether n is a known normalization.
func (n Normalization) Valid() bool {
	switch n {
	case ColumnStochastic, RowStochastic, Symmetric:
		return true
	}
	return false
}

// Transition provides the weights of the normalized adjacency operator for
// one graph. Weight(u, v) is A[u][v] for an edge {u,v}; the operator is only
// defined on edges.
//
// The weights are materialized once into a CSR-aligned array (weights[i]
// corresponds to the i-th entry of the graph's neighbor array), so the
// diffusion kernels stream edge weights linearly instead of re-deriving
// them branch-per-edge from node degrees.
type Transition struct {
	g       *Graph
	norm    Normalization
	invDeg  []float64
	invSqrt []float64
	weights []float64 // CSR-aligned: weights[i] = A[u][neighbors[i]]

	// Cached greedy coloring for the multi-color Gauss–Seidel engine,
	// computed on first use (see Coloring). Transitions are immutable, so
	// once computed it is valid for the object's lifetime.
	colorOnce sync.Once
	coloring  *Coloring
}

// NewTransition precomputes degree normalizers and the CSR-aligned edge
// weights for g under norm.
func NewTransition(g *Graph, norm Normalization) *Transition {
	if !norm.Valid() {
		panic(fmt.Sprintf("graph: invalid normalization %d", int(norm)))
	}
	n := g.NumNodes()
	t := &Transition{g: g, norm: norm}
	t.invDeg = make([]float64, n)
	t.invSqrt = make([]float64, n)
	for u := 0; u < n; u++ {
		if d := g.Degree(u); d > 0 {
			t.invDeg[u] = 1 / float64(d)
			t.invSqrt[u] = 1 / math.Sqrt(float64(d))
		}
	}
	t.weights = make([]float64, len(g.neighbors))
	for u := 0; u < n; u++ {
		start, end := g.offsets[u], g.offsets[u+1]
		switch norm {
		case ColumnStochastic:
			for i := start; i < end; i++ {
				t.weights[i] = t.invDeg[g.neighbors[i]]
			}
		case RowStochastic:
			w := t.invDeg[u]
			for i := start; i < end; i++ {
				t.weights[i] = w
			}
		default: // Symmetric
			w := t.invSqrt[u]
			for i := start; i < end; i++ {
				t.weights[i] = w * t.invSqrt[g.neighbors[i]]
			}
		}
	}
	return t
}

// Reverse returns the transpose operator Aᵀ as a Transition over the same
// graph, so reverse push (solving h = α·e_t + (1−α)·Aᵀ·h for the reverse
// PPR vector of a target t) runs on the exact same CSR layout and fused
// ApplyRow/ApplyRowAffine kernels as forward diffusion.
//
// Because the graph is undirected, transposition is a pure normalization
// flip: Aᵀ[u][v] = A[v][u], so the column-stochastic operator (1/deg(v))
// transposes to the row-stochastic one (1/deg(u)) and vice versa, and the
// symmetric operator is self-adjoint (Reverse returns the receiver itself —
// no new weights array). The graph is shared; only the normalizers and the
// CSR-aligned weights are rebuilt (one O(n+|E|) pass, same cost as
// NewTransition), and Reverse∘Reverse reproduces the original weights
// bit-for-bit.
func (t *Transition) Reverse() *Transition {
	switch t.norm {
	case ColumnStochastic:
		return NewTransition(t.g, RowStochastic)
	case RowStochastic:
		return NewTransition(t.g, ColumnStochastic)
	default: // Symmetric: A = Aᵀ
		return t
	}
}

// Graph returns the underlying graph.
func (t *Transition) Graph() *Graph { return t.g }

// Kind returns the normalization in effect.
func (t *Transition) Kind() Normalization { return t.norm }

// Weight returns A[u][v] for the edge {u,v}. The caller must pass an actual
// edge; the weight of a non-edge is 0 by definition but is not checked here
// because all call sites iterate neighbor lists.
func (t *Transition) Weight(u, v NodeID) float64 {
	switch t.norm {
	case ColumnStochastic:
		return t.invDeg[v]
	case RowStochastic:
		return t.invDeg[u]
	default: // Symmetric
		return t.invSqrt[u] * t.invSqrt[v]
	}
}

// Weights returns the edge weights of u's CSR row: Weights(u)[i] is
// A[u][Neighbors(u)[i]]. The returned slice aliases internal storage and
// must not be mutated.
func (t *Transition) Weights(u NodeID) []float64 {
	return t.weights[t.g.offsets[u]:t.g.offsets[u+1]:t.g.offsets[u+1]]
}

// ApplyRow accumulates coeff · Σ_{v∈N(u)} A[u][v] · src[v] into dst in one
// fused pass over u's CSR row: edge weights and neighbor ids stream from
// two parallel arrays with no per-edge normalization branch. dst must have
// src.Cols() length; entries are added to (callers zero dst first when they
// want a plain product).
func (t *Transition) ApplyRow(dst []float64, u NodeID, coeff float64, src *vecmath.Matrix) {
	if len(dst) != src.Cols() {
		panic(fmt.Sprintf("graph: ApplyRow width mismatch dst=%d src=%d", len(dst), src.Cols()))
	}
	start, end := t.g.offsets[u], t.g.offsets[u+1]
	applyRowKernel(dst, coeff, t.g.neighbors[start:end], t.weights[start:end], src)
}

// applyRowKernel is the shared accumulate loop behind Transition.ApplyRow
// and TransitionShard.ApplyRow: the neighbor ids and weights of one CSR row
// stream as parallel slices, so per-shard CSR copies produce bit-for-bit
// the same sums as the full CSR (identical edge order, identical op order).
func applyRowKernel(dst []float64, coeff float64, nbrs []NodeID, ws []float64, src *vecmath.Matrix) {
	for i, v := range nbrs {
		w := coeff * ws[i]
		row := src.Row(v)
		// Reslicing dst to the row length lets the compiler prove d[j] in
		// bounds and drop the per-element check in the hot loop.
		d := dst[:len(row)]
		for j, x := range row {
			d[j] += w * x
		}
	}
}

// ApplyRowAffine computes dst = tele·e0row + coeff · Σ_{v∈N(u)} A[u][v] ·
// src[v] in one fused pass: the teleport term seeds dst (replacing the
// separate Zero + AXPY passes of the eq. 7 kernels) and the CSR row
// accumulates on top, four edges at a time so each dst element is
// loaded/stored once per edge quad. The column kernels use it on their hot
// path; note the addition order differs from Zero+ApplyRow+AXPY, so
// results are equal only up to rounding — callers needing
// bit-compatibility with the historical synchronous filter must keep the
// unfused sequence.
//
// On CPUs with a SIMD body (amd64 with AVX2) the row runs there; elsewhere
// the portable Go kernel runs. The SIMD body performs one IEEE
// multiply/add per scalar multiply/add of the Go kernel in the same
// per-element order, so the output is bit-for-bit the same on every CPU.
func (t *Transition) ApplyRowAffine(dst []float64, u NodeID, coeff float64, src *vecmath.Matrix, tele float64, e0row []float64) {
	if len(dst) != src.Cols() || len(e0row) != len(dst) {
		panic(fmt.Sprintf("graph: ApplyRowAffine width mismatch dst=%d e0=%d src=%d", len(dst), len(e0row), src.Cols()))
	}
	start, end := t.g.offsets[u], t.g.offsets[u+1]
	applyRowAffine(dst, coeff, t.g.neighbors[start:end], t.weights[start:end], src, tele, e0row)
}

// applyRowAffine dispatches one affine CSR-row accumulation to the SIMD
// body when the CPU has one, else to the portable Go kernel. It is shared
// by Transition.ApplyRowAffine and TransitionShard.ApplyRowAffine (see
// applyRowKernel for why the row slices are shared).
func applyRowAffine(dst []float64, coeff float64, nbrs []NodeID, ws []float64, src *vecmath.Matrix, tele float64, e0row []float64) {
	if hasVec {
		applyRowAffineVec(dst, coeff, nbrs, ws, src, tele, e0row)
		return
	}
	applyRowAffineKernel(dst, coeff, nbrs, ws, src, tele, e0row)
}

// applyRowAffineKernel is the portable 4-edge-unrolled Go body of
// ApplyRowAffine, and the reference the SIMD body must match bit for bit.
func applyRowAffineKernel(dst []float64, coeff float64, nbrs []NodeID, ws []float64, src *vecmath.Matrix, tele float64, e0row []float64) {
	e := e0row[:len(dst)]
	for j := range dst {
		dst[j] = tele * e[j]
	}
	end := len(nbrs)
	i := 0
	for ; i+3 < end; i += 4 {
		w1 := coeff * ws[i]
		w2 := coeff * ws[i+1]
		w3 := coeff * ws[i+2]
		w4 := coeff * ws[i+3]
		r1 := src.Row(nbrs[i])
		r2 := src.Row(nbrs[i+1])
		r3 := src.Row(nbrs[i+2])
		r4 := src.Row(nbrs[i+3])
		d := dst[:len(r1)]
		r2 = r2[:len(r1)]
		r3 = r3[:len(r1)]
		r4 = r4[:len(r1)]
		for j, x := range r1 {
			d[j] += w1*x + w2*r2[j] + w3*r3[j] + w4*r4[j]
		}
	}
	for ; i < end; i++ {
		w := coeff * ws[i]
		row := src.Row(nbrs[i])
		d := dst[:len(row)]
		for j, x := range row {
			d[j] += w * x
		}
	}
}

// AffineKernel is one body of the affine row kernel, named for benchmark
// reports.
type AffineKernel struct {
	Name  string
	Apply func(dst []float64, u NodeID, coeff float64, src *vecmath.Matrix, tele float64, e0row []float64)
}

// AffineKernels returns the bodies ApplyRowAffine can run on this CPU:
// the portable Go kernel ("go") and, when the CPU has one, the SIMD body
// ("simd") that ApplyRowAffine dispatches to. Benchmarks time them side by
// side; production code calls ApplyRowAffine. Apply skips the width
// checks of ApplyRowAffine.
func (t *Transition) AffineKernels() []AffineKernel {
	row := func(body func([]float64, float64, []NodeID, []float64, *vecmath.Matrix, float64, []float64)) func([]float64, NodeID, float64, *vecmath.Matrix, float64, []float64) {
		return func(dst []float64, u NodeID, coeff float64, src *vecmath.Matrix, tele float64, e0row []float64) {
			start, end := t.g.offsets[u], t.g.offsets[u+1]
			body(dst, coeff, t.g.neighbors[start:end], t.weights[start:end], src, tele, e0row)
		}
	}
	ks := []AffineKernel{{Name: "go", Apply: row(applyRowAffineKernel)}}
	if hasVec {
		ks = append(ks, AffineKernel{Name: "simd", Apply: row(applyRowAffineVec)})
	}
	return ks
}

// Apply computes dst[u] = Σ_{v∈N(u)} A[u][v] · src[v] for a scalar signal.
// dst and src must have length NumNodes and must not alias.
func (t *Transition) Apply(dst, src []float64) {
	n := t.g.NumNodes()
	if len(dst) != n || len(src) != n {
		panic(fmt.Sprintf("graph: Apply length mismatch dst=%d src=%d n=%d", len(dst), len(src), n))
	}
	for u := 0; u < n; u++ {
		var s float64
		start, end := t.g.offsets[u], t.g.offsets[u+1]
		for i := start; i < end; i++ {
			s += t.weights[i] * src[t.g.neighbors[i]]
		}
		dst[u] = s
	}
}
