package diffusearch_test

// Engine-equivalence acceptance test: on the quarter-scale environment
// (~1,000 nodes) the residual-driven Parallel engine must converge to the
// same PPR fixed point as the deterministic Asynchronous reference within
// 1e-4 max-norm, while spending strictly fewer messages.

import (
	"testing"

	"diffusearch"
	"diffusearch/internal/graph"
	"diffusearch/internal/vecmath"
)

// quarterEnv shares the quarter-scale environment cached by bench_test.go.
func quarterEnv(t *testing.T) *diffusearch.Environment {
	t.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = diffusearch.NewScaledEnvironment(42, 0.25)
	})
	if benchErr != nil {
		t.Fatal(benchErr)
	}
	return benchEnv
}

func TestParallelMatchesAsynchronousQuarterScale(t *testing.T) {
	env := quarterEnv(t)
	net := diffusearch.NewNetwork(env.Graph, env.Bench.Vocabulary())
	r := diffusearch.NewRand(7)
	pair := env.Bench.SamplePair(r)
	docs := append([]diffusearch.DocID{pair.Gold}, env.Bench.SamplePool(r, 499)...)
	if err := net.PlaceDocuments(docs, diffusearch.UniformHosts(r, len(docs), env.Graph.NumNodes())); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}

	stAsync, err := net.Run(diffusearch.DiffusionRequest{Engine: diffusearch.EngineAsynchronous, Alpha: 0.5, Tol: 1e-6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	n := env.Graph.NumNodes()
	ref := vecmath.NewMatrix(n, env.Bench.Vocabulary().Dim())
	for u := 0; u < n; u++ {
		e, err := net.NodeEmbedding(u)
		if err != nil {
			t.Fatal(err)
		}
		ref.SetRow(u, e)
	}

	stPar, err := net.Run(diffusearch.DiffusionRequest{Engine: diffusearch.EngineParallel, Alpha: 0.5, Tol: 1e-6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !stAsync.Converged || !stPar.Converged {
		t.Fatalf("both engines must converge: async %+v parallel %+v", stAsync, stPar)
	}
	var maxDiff float64
	for u := 0; u < n; u++ {
		e, err := net.NodeEmbedding(u)
		if err != nil {
			t.Fatal(err)
		}
		if d := vecmath.MaxAbsDiff(e, ref.Row(u)); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-4 {
		t.Fatalf("parallel differs from asynchronous by %g (acceptance bar 1e-4)", maxDiff)
	}
	if stPar.Messages >= stAsync.Messages {
		t.Fatalf("parallel messages %d not below asynchronous %d", stPar.Messages, stAsync.Messages)
	}
	t.Logf("max|Δ| = %.3g; messages async=%d parallel=%d (%.1f%% of reference)",
		maxDiff, stAsync.Messages, stPar.Messages, 100*float64(stPar.Messages)/float64(stAsync.Messages))
}

func TestParallelEngineDeterministicAtScale(t *testing.T) {
	// The block-Jacobi frontier makes Parallel schedule-independent: two
	// runs with different worker counts must agree bit for bit.
	env := quarterEnv(t)
	tr := graph.NewTransition(env.Graph, graph.ColumnStochastic)
	r := diffusearch.NewRand(11)
	e0 := vecmath.NewMatrix(env.Graph.NumNodes(), 8)
	for u := 0; u < env.Graph.NumNodes(); u++ {
		e0.SetRow(u, vecmath.RandomGaussian(r, 8, 1))
	}
	run := func(workers int) *vecmath.Matrix {
		out, _, err := diffusearch.RunDiffusion(diffusearch.EngineParallel, tr, e0,
			diffusearch.DiffusionParams{Alpha: 0.3, Workers: workers}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if vecmath.MaxAbsDiffMatrix(run(1), run(6)) != 0 {
		t.Fatal("parallel engine must be deterministic across worker counts")
	}
}
