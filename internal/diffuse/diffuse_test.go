package diffuse

import (
	"errors"
	"strings"
	"testing"

	"diffusearch/internal/gengraph"
	"diffusearch/internal/graph"
	"diffusearch/internal/ppr"
	"diffusearch/internal/randx"
	"diffusearch/internal/vecmath"
)

func randomSignal(seed uint64, rows, cols int) *vecmath.Matrix {
	r := randx.New(seed)
	m := vecmath.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	return m
}

func syncFixedPoint(t *testing.T, tr *graph.Transition, e0 *vecmath.Matrix, alpha float64) *vecmath.Matrix {
	t.Helper()
	out, _, err := ppr.PPRFilter{Alpha: alpha, Tol: 1e-12}.Apply(tr, e0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAsynchronousMatchesSynchronousFixedPoint(t *testing.T) {
	g := gengraph.ErdosRenyi(60, 0.12, 3)
	g, _ = g.LargestComponent()
	for _, norm := range []graph.Normalization{graph.ColumnStochastic, graph.RowStochastic, graph.Symmetric} {
		for _, alpha := range []float64{0.1, 0.5, 0.9} {
			tr := graph.NewTransition(g, norm)
			e0 := randomSignal(1, g.NumNodes(), 5)
			want := syncFixedPoint(t, tr, e0, alpha)
			got, st, err := Run(EngineAsynchronous, tr, e0, Params{Alpha: alpha, Tol: 1e-10}, 7)
			if err != nil {
				t.Fatalf("%v a=%v: %v", norm, alpha, err)
			}
			if !st.Converged {
				t.Fatalf("%v a=%v: not converged", norm, alpha)
			}
			if d := vecmath.MaxAbsDiffMatrix(got, want); d > 1e-6 {
				t.Fatalf("%v a=%v: async differs from sync fixed point by %g", norm, alpha, d)
			}
		}
	}
}

func TestAsynchronousDeterministicForSeed(t *testing.T) {
	g := gengraph.ErdosRenyi(40, 0.15, 4)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(2, g.NumNodes(), 3)
	a, stA, err := Run(EngineAsynchronous, tr, e0, Params{Alpha: 0.3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, stB, err := Run(EngineAsynchronous, tr, e0, Params{Alpha: 0.3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.MaxAbsDiffMatrix(a, b) != 0 {
		t.Fatal("same seed must reproduce identical diffusion")
	}
	if stA.Updates != stB.Updates || stA.Messages != stB.Messages {
		t.Fatal("same seed must reproduce identical stats")
	}
}

func TestAsynchronousStats(t *testing.T) {
	g := gengraph.ErdosRenyi(30, 0.2, 5)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(3, g.NumNodes(), 2)
	_, st, err := Run(EngineAsynchronous, tr, e0, Params{Alpha: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates < int64(g.NumNodes()) {
		t.Fatalf("updates %d < node count", st.Updates)
	}
	if st.Messages <= 0 {
		t.Fatal("message count must be positive")
	}
	if st.Sweeps < 1 {
		t.Fatal("sweeps must be >= 1")
	}
	// One sweep visits every node once: updates = sweeps*n.
	if st.Updates != int64(st.Sweeps*g.NumNodes()) {
		t.Fatalf("updates %d != sweeps %d × n %d", st.Updates, st.Sweeps, g.NumNodes())
	}
}

func TestAsynchronousInputUnmodified(t *testing.T) {
	g := gengraph.ErdosRenyi(20, 0.2, 6)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(4, g.NumNodes(), 2)
	snap := e0.Clone()
	if _, _, err := Run(EngineAsynchronous, tr, e0, Params{Alpha: 0.4}, 2); err != nil {
		t.Fatal(err)
	}
	if vecmath.MaxAbsDiffMatrix(e0, snap) != 0 {
		t.Fatal("input signal modified")
	}
}

func TestAsynchronousValidation(t *testing.T) {
	g := gengraph.ErdosRenyi(10, 0.3, 7)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(5, g.NumNodes(), 1)
	if _, _, err := Run(EngineAsynchronous, tr, e0, Params{Alpha: 0}, 1); err == nil {
		t.Fatal("alpha=0 must error")
	}
	bad := randomSignal(6, 3, 1)
	if _, _, err := Run(EngineAsynchronous, tr, bad, Params{Alpha: 0.5}, 1); err == nil {
		t.Fatal("row mismatch must error")
	}
}

func TestAsynchronousNoConvergenceBudget(t *testing.T) {
	g := gengraph.ErdosRenyi(30, 0.2, 8)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(7, g.NumNodes(), 2)
	_, st, err := Run(EngineAsynchronous, tr, e0, Params{Alpha: 0.05, Tol: 1e-14, MaxSweeps: 1}, 3)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
	if st.Converged {
		t.Fatal("stats must report non-convergence")
	}
}

func TestAsynchronousAlphaOneKeepsPersonalization(t *testing.T) {
	g := gengraph.ErdosRenyi(15, 0.3, 9)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(8, g.NumNodes(), 2)
	out, _, err := Run(EngineAsynchronous, tr, e0, Params{Alpha: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if vecmath.MaxAbsDiffMatrix(out, e0) > 1e-12 {
		t.Fatal("alpha=1 must leave personalization vectors unchanged")
	}
}

func TestRunDispatchesEngines(t *testing.T) {
	g := gengraph.ErdosRenyi(40, 0.15, 10)
	g, _ = g.LargestComponent()
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(9, g.NumNodes(), 4)
	want := syncFixedPoint(t, tr, e0, 0.4)
	for _, eng := range allEngines {
		got, st, err := Run(eng, tr, e0, Params{Alpha: 0.4, Tol: 1e-8}, 7)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if !st.Converged {
			t.Fatalf("%v: not converged", eng)
		}
		if d := vecmath.MaxAbsDiffMatrix(got, want); d > 1e-4 {
			t.Fatalf("%v differs from fixed point by %g", eng, d)
		}
	}
	if _, _, err := Run(Engine(99), tr, e0, Params{Alpha: 0.4}, 7); err == nil {
		t.Fatal("unknown engine must error")
	}
}

var allEngines = []Engine{EngineSync, EngineAsynchronous, EngineParallel, EngineParallelGS}

// communityGraph is dense blocks joined by single bridges.
func communityGraph(n, blocks int) *graph.Graph {
	b := graph.NewBuilder(n)
	size := n / blocks
	r := randx.New(5)
	for c := 0; c < blocks; c++ {
		lo, hi := c*size, (c+1)*size
		if c == blocks-1 {
			hi = n
		}
		for u := lo; u < hi; u++ {
			for k := 0; k < 4; k++ {
				if v := lo + r.IntN(hi-lo); v != u {
					b.AddEdge(u, v)
				}
			}
		}
		b.AddEdge(lo, hi%n)
	}
	return b.Build()
}

// fixedPointResidual returns ‖α·E0 + (1−α)·A·E − E‖∞: how far E is from
// solving the PPR system, read off the operator directly.
func fixedPointResidual(tr *graph.Transition, e0, e *vecmath.Matrix, alpha float64) float64 {
	row := make([]float64, e.Cols())
	var worst float64
	for u := 0; u < e.Rows(); u++ {
		vecmath.Zero(row)
		tr.ApplyRow(row, u, 1-alpha, e)
		vecmath.AXPY(row, alpha, e0.Row(u))
		if d := vecmath.MaxAbsDiff(row, e.Row(u)); d > worst {
			worst = d
		}
	}
	return worst
}

// TestRunFixedPointResidualEveryEngine: whatever the schedule, Run's
// output solves the PPR system to within 10× the engine's default
// tolerance, on the topologies that stress a local stopping rule — a hub
// whose incoming weights are all 1 (star), hubs straddling the graph
// (hub-adversarial), and weakly bridged blocks (community). Columns retire
// one by one on every engine, so no whole-block stop backs this up.
func TestRunFixedPointResidualEveryEngine(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"hub-adversarial": shardTestGraph(),
		"star":            gengraph.Star(1001),
		"community":       communityGraph(150, 5),
	}
	for name, g := range graphs {
		tr := graph.NewTransition(g, graph.ColumnStochastic)
		e0 := randomSignal(21, g.NumNodes(), 6)
		for _, alpha := range []float64{0.15, 0.5} {
			for _, eng := range allEngines {
				out, st, err := Run(eng, tr, e0, Params{Alpha: alpha}, 3)
				if err != nil {
					t.Fatalf("%s %v a=%v: %v", name, eng, alpha, err)
				}
				tol, _ := Params{}.controls()
				if eng == EngineSync {
					tol, _ = Params{}.syncControls()
				}
				if r := fixedPointResidual(tr, e0, out, alpha); !st.Converged || r > 10*tol {
					t.Errorf("%s %v a=%v: fixed-point residual %g > 10·tol %g (converged %v)", name, eng, alpha, r, 10*tol, st.Converged)
				}
			}
		}
	}
}

// TestRunEdgeCasesEveryEngine pins the degenerate inputs on every engine:
// an empty graph converges trivially, an isolated node settles at α·e0,
// α = 1 returns the input in one sweep, the input is never modified, and
// an exhausted sweep budget is ErrNoConvergence.
func TestRunEdgeCasesEveryEngine(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	isolated := graph.NewTransition(b.Build(), graph.ColumnStochastic)
	empty := graph.NewTransition(graph.NewBuilder(0).Build(), graph.ColumnStochastic)
	er := graph.NewTransition(gengraph.ErdosRenyi(30, 0.2, 8), graph.ColumnStochastic)
	for _, eng := range allEngines {
		out, st, err := Run(eng, empty, vecmath.NewMatrix(0, 3), Params{Alpha: 0.5}, 1)
		if err != nil || !st.Converged || out.Rows() != 0 || out.Cols() != 3 {
			t.Errorf("%v empty graph: %v %+v", eng, err, st)
		}

		e0 := randomSignal(13, 3, 2)
		out, _, err = Run(eng, isolated, e0, Params{Alpha: 0.5}, 1)
		if err != nil {
			t.Fatalf("%v isolated: %v", eng, err)
		}
		for j := 0; j < 2; j++ {
			if d := out.At(2, j) - 0.5*e0.At(2, j); d > 1e-9 || d < -1e-9 {
				t.Errorf("%v isolated node column %d: %g, want %g", eng, j, out.At(2, j), 0.5*e0.At(2, j))
			}
		}

		e0 = randomSignal(8, er.Graph().NumNodes(), 2)
		snap := e0.Clone()
		out, st, err = Run(eng, er, e0, Params{Alpha: 1}, 1)
		if err != nil || !st.Converged || st.Sweeps != 1 {
			t.Errorf("%v alpha=1: must converge in one sweep, got %v %+v", eng, err, st)
		}
		if vecmath.MaxAbsDiffMatrix(out, e0) > 1e-12 {
			t.Errorf("%v alpha=1 must leave the input unchanged", eng)
		}
		if _, _, err := Run(eng, er, e0, Params{Alpha: 0.4}, 1); err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if vecmath.MaxAbsDiffMatrix(e0, snap) != 0 {
			t.Errorf("%v modified its input", eng)
		}

		out, st, err = Run(eng, er, e0, Params{Alpha: 0.05, Tol: 1e-14, MaxSweeps: 1}, 1)
		if !errors.Is(err, ErrNoConvergence) || st.Converged || out == nil {
			t.Errorf("%v: one-sweep budget must return the iterate with ErrNoConvergence, got %v %+v", eng, err, st)
		}
	}
}

func TestParseEngine(t *testing.T) {
	for name, want := range map[string]Engine{
		"async": EngineAsynchronous, "asynchronous": EngineAsynchronous, "parallel": EngineParallel,
	} {
		got, err := ParseEngine(name)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v; want %v", name, got, err, want)
		}
		if !got.Valid() {
			t.Fatalf("%v must be valid", got)
		}
		if got.String() == "" {
			t.Fatalf("%v must have a name", got)
		}
	}
	if _, err := ParseEngine("mailboxes"); err == nil {
		t.Fatal("unknown engine name must error")
	}
}

// TestParseEngineRejectionListsNames: a flag typo's error must teach the
// accepted spellings, not surface as a bare failure.
func TestParseEngineRejectionListsNames(t *testing.T) {
	_, err := ParseEngine("mailboxes")
	if err == nil {
		t.Fatal("unknown engine name must error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "mailboxes") {
		t.Fatalf("error %q does not echo the rejected value", msg)
	}
	for _, name := range []string{"async", "parallel", "sync"} {
		if !strings.Contains(msg, name) {
			t.Fatalf("error %q does not list accepted name %q", msg, name)
		}
	}
}
