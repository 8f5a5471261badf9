package graph

import (
	"math/rand"
	"testing"

	"diffusearch/internal/vecmath"
)

// randTransition builds a random graph whose rows exercise every unroll
// path: degrees 0..13 cover the 4-edge quads plus 0..3 remainder edges.
func randTransition(t testing.TB, n int, r *rand.Rand) *Transition {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		deg := r.Intn(14)
		for k := 0; k < deg; k++ {
			v := r.Intn(n)
			if v != u {
				b.AddEdge(u, v)
			}
		}
	}
	g := b.Build()
	return NewTransition(g, ColumnStochastic)
}

// TestApplyRowAffineVecBitIdentical checks every body ApplyRowAffine can
// run on this CPU (the SIMD body where present, and the dispatching entry
// point itself) against the portable Go kernel bit-for-bit, across widths
// 1–9 and 64 plus wide ones, so every vector/scalar tail combination runs.
func TestApplyRowAffineVecBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := randTransition(t, 97, r)
	n := tr.Graph().NumNodes()
	bodies := append(tr.AffineKernels(), AffineKernel{Name: "ApplyRowAffine", Apply: tr.ApplyRowAffine})
	for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 64, 127, 512} {
		src := vecmath.NewMatrix(n, cols)
		e0 := vecmath.NewMatrix(n, cols)
		for _, m := range []*vecmath.Matrix{src, e0} {
			d := m.Data()
			for i := range d {
				d[i] = r.NormFloat64()
			}
		}
		want := make([]float64, cols)
		got := make([]float64, cols)
		for u := 0; u < n; u++ {
			start, end := tr.g.offsets[u], tr.g.offsets[u+1]
			applyRowAffineKernel(want, 0.5, tr.g.neighbors[start:end], tr.weights[start:end], src, 0.15, e0.Row(u))
			for _, k := range bodies {
				k.Apply(got, u, 0.5, src, 0.15, e0.Row(u))
				for j := range want {
					if want[j] != got[j] {
						t.Fatalf("%s cols=%d u=%d col=%d: %v vs Go kernel %v (must be bit-identical)", k.Name, cols, u, j, got[j], want[j])
					}
				}
			}
		}
	}
}
