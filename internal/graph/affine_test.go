package graph

import (
	"fmt"
	"math"
	"testing"

	"diffusearch/internal/vecmath"
)

// affineFixture builds a graph and a width-dim source block with varied row
// supports for kernel equivalence checks.
func affineFixture(seed uint64, n, dim int) (*Graph, *vecmath.Matrix, []float64) {
	g := randomGraph(seed, n, 0.15)
	src := vecmath.NewMatrix(g.NumNodes(), dim)
	e0 := make([]float64, dim)
	for u := 0; u < g.NumNodes(); u++ {
		for j := 0; j < dim; j++ {
			src.Set(u, j, math.Sin(float64(u*dim+j)))
		}
	}
	for j := range e0 {
		e0[j] = float64(j%5) - 2
	}
	return g, src, e0
}

func TestApplyRowAffineMatchesUnfusedSequence(t *testing.T) {
	// The fused teleport+accumulate kernel must agree with the unfused
	// Zero + ApplyRow + AXPY sequence up to rounding (the addition order
	// differs, so exact equality is not the contract).
	for _, dim := range []int{1, 3, 8} {
		g, src, e0 := affineFixture(101, 40, dim)
		for _, norm := range []Normalization{ColumnStochastic, RowStochastic, Symmetric} {
			tr := NewTransition(g, norm)
			for u := 0; u < g.NumNodes(); u++ {
				fused := make([]float64, dim)
				tr.ApplyRowAffine(fused, u, 0.5, src, 0.5, e0)
				want := make([]float64, dim)
				tr.ApplyRow(want, u, 0.5, src)
				vecmath.AXPY(want, 0.5, e0)
				for j := 0; j < dim; j++ {
					if d := math.Abs(fused[j] - want[j]); d > 1e-12 {
						t.Fatalf("%v dim=%d node %d col %d: fused %v vs unfused %v",
							norm, dim, u, j, fused[j], want[j])
					}
				}
			}
		}
	}
}

func TestApplyRowAffineWidthMismatchPanics(t *testing.T) {
	t.Run("unroll4", func(t *testing.T) {
		tr := NewTransition(triangle(), ColumnStochastic)
		src := vecmath.NewMatrix(3, 2)
		defer func() {
			if recover() == nil {
				t.Fatal("want panic on width mismatch")
			}
		}()
		tr.ApplyRowAffine(make([]float64, 3), 0, 1, src, 0.5, make([]float64, 3))
	})
}

// BenchmarkApplyRowAffine times the bodies ApplyRowAffine can dispatch to
// — the portable Go kernel and, where the CPU has one, the SIMD body —
// across serving batch widths. cmd/benchjson re-runs the same comparison
// on the paper-scale graph and records it in BENCH_diffuse.json.
func BenchmarkApplyRowAffine(b *testing.B) {
	g := randomGraph(303, 2000, 0.01)
	n := g.NumNodes()
	for _, width := range []int{1, 8, 64} {
		src := vecmath.NewMatrix(n, width)
		for u := 0; u < n; u++ {
			for j := 0; j < width; j++ {
				src.Set(u, j, math.Sin(float64(u+j)))
			}
		}
		e0 := make([]float64, width)
		dst := make([]float64, width)
		tr := NewTransition(g, ColumnStochastic)
		for _, k := range tr.AffineKernels() {
			b.Run(fmt.Sprintf("%s/B=%d", k.Name, width), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for u := 0; u < n; u++ {
						k.Apply(dst, u, 0.5, src, 0.5, e0)
					}
				}
			})
		}
	}
}
