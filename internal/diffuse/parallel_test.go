package diffuse

import (
	"errors"
	"testing"

	"diffusearch/internal/gengraph"
	"diffusearch/internal/graph"
	"diffusearch/internal/vecmath"
)

func TestParallelMatchesSynchronousFixedPoint(t *testing.T) {
	g := gengraph.ErdosRenyi(60, 0.12, 3)
	g, _ = g.LargestComponent()
	for _, norm := range []graph.Normalization{graph.ColumnStochastic, graph.RowStochastic, graph.Symmetric} {
		for _, alpha := range []float64{0.1, 0.5, 0.9} {
			tr := graph.NewTransition(g, norm)
			e0 := randomSignal(1, g.NumNodes(), 5)
			want := syncFixedPoint(t, tr, e0, alpha)
			got, st, err := Run(EngineParallel, tr, e0, Params{Alpha: alpha, Tol: 1e-8}, 0)
			if err != nil {
				t.Fatalf("%v a=%v: %v", norm, alpha, err)
			}
			if !st.Converged {
				t.Fatalf("%v a=%v: not converged", norm, alpha)
			}
			if st.Updates == 0 || st.Messages == 0 {
				t.Fatalf("%v a=%v: stats must be populated", norm, alpha)
			}
			// The tol/4 push threshold bounds how stale a frontier member's
			// inputs may be; allow a proportional band.
			if d := vecmath.MaxAbsDiffMatrix(got, want); d > 1e-4 {
				t.Fatalf("%v a=%v: parallel differs from fixed point by %g", norm, alpha, d)
			}
		}
	}
}

func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	// Each round is block Jacobi over a deterministic frontier set, so the
	// result must be bit-for-bit identical however the pool is sized.
	g := gengraph.ErdosRenyi(80, 0.1, 4)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(2, g.NumNodes(), 3)
	ref, refSt, err := Run(EngineParallel, tr, e0, Params{Alpha: 0.3, Workers: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7, 16} {
		got, st, err := Run(EngineParallel, tr, e0, Params{Alpha: 0.3, Workers: workers}, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if vecmath.MaxAbsDiffMatrix(ref, got) != 0 {
			t.Fatalf("workers=%d: result differs from single-worker run", workers)
		}
		if st.Updates != refSt.Updates || st.Messages != refSt.Messages || st.Sweeps != refSt.Sweeps {
			t.Fatalf("workers=%d: stats %+v differ from single-worker %+v", workers, st, refSt)
		}
	}
}

func TestParallelSendsFewerMessagesThanAsynchronous(t *testing.T) {
	// The frontier stops touching converged regions, so the bandwidth proxy
	// must undercut the sweep-everything reference engine.
	g := gengraph.ErdosRenyi(120, 0.08, 5)
	g, _ = g.LargestComponent()
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(3, g.NumNodes(), 4)
	_, stPar, err := Run(EngineParallel, tr, e0, Params{Alpha: 0.5, Tol: 1e-8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, stAsync, err := Run(EngineAsynchronous, tr, e0, Params{Alpha: 0.5, Tol: 1e-8}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if stPar.Messages >= stAsync.Messages {
		t.Fatalf("parallel sent %d messages, asynchronous %d; frontier must cut bandwidth",
			stPar.Messages, stAsync.Messages)
	}
}

func TestParallelOnStarGraph(t *testing.T) {
	// A hub with many leaves exercises the hub/leaf weight asymmetry and
	// concurrent marking of one shared neighbour.
	g := gengraph.Star(30)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(10, g.NumNodes(), 3)
	want := syncFixedPoint(t, tr, e0, 0.5)
	got, _, err := Run(EngineParallel, tr, e0, Params{Alpha: 0.5, Tol: 1e-8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := vecmath.MaxAbsDiffMatrix(got, want); d > 1e-4 {
		t.Fatalf("star graph result off by %g", d)
	}
}

func TestParallelHighDegreeHubAtDefaultTolerance(t *testing.T) {
	// Regression: with a flat per-sender push cutoff, 1,000 leaves each
	// drifting just under it could leave the column-stochastic hub (whose
	// incoming weights are all 1) off the fixed point by ~250× the
	// tolerance (≈2.5e-4, past the 1e-4 acceptance bar) while still
	// reporting convergence. The receiver-aware accumulated threshold must
	// keep even this adversarial topology inside the acceptance bar; the
	// remaining gap versus tol is the resolvent amplification
	// ‖(I−(1−α)A)⁻¹‖ at the hub, which no local push rule can see.
	g := gengraph.Star(1001)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(14, g.NumNodes(), 3)
	want := syncFixedPoint(t, tr, e0, 0.5)
	got, st, err := Run(EngineParallel, tr, e0, Params{Alpha: 0.5}, 0) // default tol 1e-6
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("not converged")
	}
	if d := vecmath.MaxAbsDiffMatrix(got, want); d > 1e-4 {
		t.Fatalf("hub off fixed point by %g at default tol 1e-6", d)
	}
}

func TestParallelValidation(t *testing.T) {
	g := gengraph.Star(5)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(11, g.NumNodes(), 2)
	if _, _, err := Run(EngineParallel, tr, e0, Params{Alpha: -1}, 0); err == nil {
		t.Fatal("bad alpha must error")
	}
	bad := randomSignal(12, 2, 2)
	if _, _, err := Run(EngineParallel, tr, bad, Params{Alpha: 0.5}, 0); err == nil {
		t.Fatal("row mismatch must error")
	}
}

func TestParallelIsolatedNodes(t *testing.T) {
	// Isolated nodes have no neighbours: their embedding must settle at
	// alpha·e0 (no incoming mass) after a single frontier visit.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.Build()
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(13, 3, 2)
	got, _, err := Run(EngineParallel, tr, e0, Params{Alpha: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		want := 0.5 * e0.At(2, j)
		if diff := got.At(2, j) - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("isolated node embedding %g, want %g", got.At(2, j), want)
		}
	}
}

func TestParallelInputUnmodified(t *testing.T) {
	g := gengraph.ErdosRenyi(20, 0.2, 6)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(4, g.NumNodes(), 2)
	snap := e0.Clone()
	if _, _, err := Run(EngineParallel, tr, e0, Params{Alpha: 0.4}, 0); err != nil {
		t.Fatal(err)
	}
	if vecmath.MaxAbsDiffMatrix(e0, snap) != 0 {
		t.Fatal("input signal modified")
	}
}

func TestParallelNoConvergenceBudget(t *testing.T) {
	g := gengraph.ErdosRenyi(30, 0.2, 8)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(7, g.NumNodes(), 2)
	_, st, err := Run(EngineParallel, tr, e0, Params{Alpha: 0.05, Tol: 1e-14, MaxSweeps: 1}, 0)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
	if st.Converged {
		t.Fatal("stats must report non-convergence")
	}
}

func TestParallelAlphaOneKeepsPersonalization(t *testing.T) {
	g := gengraph.ErdosRenyi(15, 0.3, 9)
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := randomSignal(8, g.NumNodes(), 2)
	out, st, err := Run(EngineParallel, tr, e0, Params{Alpha: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Sweeps != 1 {
		t.Fatalf("alpha=1 must converge in one round, got %+v", st)
	}
	if vecmath.MaxAbsDiffMatrix(out, e0) > 1e-12 {
		t.Fatal("alpha=1 must leave personalization vectors unchanged")
	}
}

func TestParallelEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	tr := graph.NewTransition(g, graph.ColumnStochastic)
	e0 := vecmath.NewMatrix(0, 3)
	out, st, err := Run(EngineParallel, tr, e0, Params{Alpha: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || out.Rows() != 0 {
		t.Fatalf("empty graph must converge trivially, got %+v", st)
	}
}
