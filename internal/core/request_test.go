package core

import (
	"errors"
	"runtime"
	"testing"

	"diffusearch/internal/diffuse"
	"diffusearch/internal/ppr"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
)

// syncScores scores one query with a single-column ScoreBatch on the
// synchronous engine: the reference the batch properties compare against.
func syncScores(t *testing.T, net *Network, query []float64, alpha, tol float64) []float64 {
	t.Helper()
	batch, _, err := net.ScoreBatch([][]float64{query}, DiffusionRequest{Engine: diffuse.EngineSync, Alpha: alpha, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	return batch[0]
}

func TestFastNodeScoresBitCompatibleWithLegacyPPRFilterPath(t *testing.T) {
	// A one-query ScoreBatch on EngineSync must reproduce the historical
	// direct ppr.PPRFilter implementation bit for bit — experiments and
	// walk traces seeded on the old scores must not move.
	f := newFixture(t)
	pair := f.place(t, 60, 41)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	query := f.net.Vocabulary().Vector(pair.Query)
	for _, tol := range []float64{0, 1e-10} {
		for _, alpha := range []float64{0.1, 0.5, 0.9} {
			got := syncScores(t, f.net, query, alpha, tol)
			// The legacy implementation, verbatim: scalar projection then a
			// direct synchronous PPR filter.
			nn := f.net.Graph().NumNodes()
			x := vecmath.NewMatrix(nn, 1)
			for u := 0; u < nn; u++ {
				p, err := f.net.Personalization(u)
				if err != nil {
					t.Fatal(err)
				}
				x.Set(u, 0, vecmath.Dot(query, p))
			}
			diffused, _, err := (ppr.PPRFilter{Alpha: alpha, Tol: tol}).Apply(f.net.Transition(), x)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < nn; u++ {
				if got[u] != diffused.At(u, 0) {
					t.Fatalf("alpha=%v tol=%v node %d: %g != legacy %g (must be bit-identical)",
						alpha, tol, u, got[u], diffused.At(u, 0))
				}
			}
		}
	}
}

func TestScoreBatchMatchesSequentialFastNodeScores(t *testing.T) {
	// The batch-equivalence property: ScoreBatch over B random queries must
	// equal B independent one-query sync scorings within 1e-9, across every
	// engine and worker count. At the tight tolerance used here all engines
	// land on the same fixed point to well below the bar.
	f := newFixture(t)
	f.place(t, 80, 42)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	const b = 9
	const tol = 1e-12
	r := randx.New(4242)
	queries := make([][]float64, b)
	for j := range queries {
		// Mix vocabulary vectors with random perturbations so columns have
		// distinct supports and convergence speeds.
		q := vecmath.Clone(f.net.Vocabulary().Vector(r.IntN(f.net.Vocabulary().Len())))
		for i := range q {
			q[i] += 0.1 * r.NormFloat64()
		}
		queries[j] = q
	}
	want := make([][]float64, b)
	for j, q := range queries {
		want[j] = syncScores(t, f.net, q, 0.5, tol)
	}
	for _, eng := range []diffuse.Engine{diffuse.EngineSync, diffuse.EngineAsynchronous, diffuse.EngineParallel} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			got, st, err := f.net.ScoreBatch(queries, DiffusionRequest{
				Engine: eng, Alpha: 0.5, Tol: tol, Workers: workers, Seed: 7,
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", eng, workers, err)
			}
			if !st.Converged || len(st.ColumnSweeps) != b {
				t.Fatalf("%v workers=%d: stats %+v", eng, workers, st)
			}
			for j := range want {
				if d := vecmath.MaxAbsDiff(got[j], want[j]); d > 1e-9 {
					t.Fatalf("%v workers=%d query %d: batch differs from sequential one-query scoring by %g (> 1e-9)",
						eng, workers, j, d)
				}
			}
		}
	}
}

func TestRunDispatchesEnginesAndFilters(t *testing.T) {
	f := newFixture(t)
	f.place(t, 40, 43)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	// Reference: the synchronous fixed point.
	if _, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.5, Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	nn := f.net.Graph().NumNodes()
	want := make([][]float64, nn)
	for u := range want {
		e, err := f.net.NodeEmbedding(u)
		if err != nil {
			t.Fatal(err)
		}
		want[u] = vecmath.Clone(e)
	}
	// The zero-value engine must select Parallel and land on the same
	// fixed point.
	st, err := f.net.Run(DiffusionRequest{Alpha: 0.5, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("default engine did not converge")
	}
	for u := range want {
		e, err := f.net.NodeEmbedding(u)
		if err != nil {
			t.Fatal(err)
		}
		if vecmath.MaxAbsDiff(e, want[u]) > 1e-4 {
			t.Fatalf("default-engine node %d differs from sync fixed point", u)
		}
	}
	if f.net.Alpha() != 0.5 {
		t.Fatal("Run must record alpha for engine runs")
	}
	// Filter dispatch: a request carrying a filter must match applying the
	// filter to E0 directly.
	if _, err := f.net.Run(DiffusionRequest{Filter: ppr.HeatKernelFilter{T: 2, Terms: 30}}); err != nil {
		t.Fatal(err)
	}
	heat := make([][]float64, nn)
	for u := range heat {
		e, _ := f.net.NodeEmbedding(u)
		heat[u] = vecmath.Clone(e)
	}
	direct, _, err := ppr.HeatKernelFilter{T: 2, Terms: 30}.Apply(f.net.Transition(), f.net.PersonalizationMatrix())
	if err != nil {
		t.Fatal(err)
	}
	for u := range heat {
		if vecmath.MaxAbsDiff(direct.Row(u), heat[u]) != 0 {
			t.Fatalf("filter request diverged from the filter applied directly at node %d", u)
		}
	}
	// EngineFilter adapts a request to the ppr.Filter interface: running an
	// engine through the filter slot must converge to the same fixed point.
	st, err = f.net.Run(DiffusionRequest{Filter: EngineFilter(DiffusionRequest{Alpha: 0.5, Tol: 1e-8})})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("engine-as-filter did not converge")
	}
	for u := range want {
		e, _ := f.net.NodeEmbedding(u)
		if vecmath.MaxAbsDiff(e, want[u]) > 1e-4 {
			t.Fatalf("engine-as-filter node %d differs from sync fixed point", u)
		}
	}
	// Lifecycle error.
	fresh := newFixture(t)
	if _, err := fresh.net.Run(DiffusionRequest{Alpha: 0.5}); !errors.Is(err, ErrNoPersonalization) {
		t.Fatalf("want ErrNoPersonalization, got %v", err)
	}
}

func TestScoreBatchValidation(t *testing.T) {
	f := newFixture(t)
	if _, _, err := f.net.ScoreBatch(nil, DiffusionRequest{Alpha: 0.5}); !errors.Is(err, ErrNoPersonalization) {
		t.Fatalf("want ErrNoPersonalization, got %v", err)
	}
	f.place(t, 20, 44)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.net.ScoreBatch([][]float64{{1, 2}}, DiffusionRequest{Alpha: 0.5}); err == nil {
		t.Fatal("query dimension mismatch must error")
	}
	if _, _, err := f.net.ScoreBatch([][]float64{f.net.Vocabulary().Vector(0)}, DiffusionRequest{Alpha: 0}); err == nil {
		t.Fatal("alpha=0 must error")
	}
	scores, st, err := f.net.ScoreBatch(nil, DiffusionRequest{Alpha: 0.5})
	if err != nil || len(scores) != 0 || !st.Converged {
		t.Fatalf("empty batch: %v %v %+v", scores, err, st)
	}
	cos := newFixture(t, WithScorer(retrieval.CosineSim))
	cos.place(t, 10, 45)
	if err := cos.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cos.net.ScoreBatch([][]float64{cos.net.Vocabulary().Vector(0)}, DiffusionRequest{Alpha: 0.5}); err == nil {
		t.Fatal("cosine scorer must be rejected")
	}
}

func TestRunQueryEngineSelectionOnFastScores(t *testing.T) {
	// The query hot path defaults to the Parallel engine; forcing the sync
	// engine through QueryConfig must reproduce the legacy walk exactly.
	f, pair := prepared(t, 50, 0.3, 46)
	q := f.net.Vocabulary().Vector(pair.Query)
	legacy, err := f.net.RunQuery(3, q, pair.Gold, QueryConfig{
		TTL: 25, Seed: 1, FastScores: true, Alpha: 0.3, Tol: 1e-10, Engine: diffuse.EngineSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	def, err := f.net.RunQuery(3, q, pair.Gold, QueryConfig{
		TTL: 25, Seed: 1, FastScores: true, Alpha: 0.3, Tol: 1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Found != def.Found || legacy.HopsToGold != def.HopsToGold || legacy.Visited != def.Visited {
		t.Fatalf("parallel-scored walk diverged from sync-scored walk: %+v vs %+v", def, legacy)
	}
}
